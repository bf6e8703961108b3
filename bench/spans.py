"""Spans around the calls into each layer of metamorph, and the per-layer
metrics read from them.

A traced operation runs inside ``instrument(tracer)``, which replaces each
layer's public functions at the names through which the other modules call
them (``metamorph.dynamics.kernel_conv``, ``metamorph.matching.integrate_forward``,
...) by wrappers that record one span per call, and puts the originals back
on exit. No file of the program changes. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

FLOAT_BYTES = 8


def _pair_bytes(args) -> int:
    """Bytes of the dense pairwise data a kernel call builds, computed from
    shapes: the P x Q x n difference tensor and one P x Q matrix."""
    x = args[1]
    y = args[2] if len(args) == 4 else x
    P, n = x.shape
    return FLOAT_BYTES * P * y.shape[0] * (n + 1)


def _fidelity_target(args):
    return {"target": id(args[1])}


def _inner_self(args):
    return {"self_of": id(args[0])} if args[0] is args[1] else {}


# (module, attribute, span name, annotate(args) -> attrs or None).
# One row per binding through which another module (or the benchmark)
# reaches a layer function; a module's calls to its own helpers go through
# its own globals, so those are listed under the calling module.
PATCHES = (
    ("metamorph.dynamics", "kernel_conv", "kernels.kernel_conv", lambda a: {"bytes": _pair_bytes(a)}),
    ("metamorph.dynamics", "quad_form", "kernels.quad_form", lambda a: {"bytes": _pair_bytes(a)}),
    ("metamorph.dynamics", "quad_form_grad_x", "kernels.quad_form_grad_x", lambda a: {"bytes": _pair_bytes(a)}),
    ("metamorph.dynamics", "assemble_metric", "fem.assemble_metric", None),
    ("metamorph.matching", "assemble_metric", "fem.assemble_metric", None),
    ("metamorph.dynamics", "solve_spd", "fem.solve_spd", None),
    ("metamorph.dynamics", "metric_form_grad_x", "fem.metric_form_grad_x", None),
    ("metamorph.fem", "cell_geometry", "fshape.cell_geometry", None),
    ("metamorph.varifold", "cell_geometry", "fshape.cell_geometry", None),
    ("metamorph.fshape", "cell_geometry", "fshape.cell_geometry", None),
    ("metamorph.matching", "fidelity", "varifold.fidelity", _fidelity_target),
    ("metamorph.cli", "fidelity", "varifold.fidelity", _fidelity_target),
    ("metamorph.dynamics", "grad_fidelity", "varifold.grad_fidelity", None),
    ("metamorph.varifold", "varifold_inner", "varifold.varifold_inner", _inner_self),
    ("metamorph.dynamics", "integrate_forward", "dynamics.integrate_forward", None),
    ("metamorph.matching", "integrate_forward", "dynamics.integrate_forward", None),
    ("metamorph.dynamics", "integrate_adjoint_backward", "dynamics.integrate_adjoint_backward", None),
    ("metamorph.matching", "euclidean_objective_gradient", "dynamics.euclidean_objective_gradient", None),
    ("metamorph.matching", "match", "matching.match", None),
    ("metamorph.cli", "match", "matching.match", None),
    ("metamorph.cli", "read_fshape", "fileio.read", None),
    ("metamorph.cli", "load_config", "fileio.read", None),
    ("metamorph.cli", "file_sha256", "fileio.read", None),
    ("metamorph.cli", "write_momenta", "fileio.write", None),
    ("metamorph.cli", "write_trajectory", "fileio.write", None),
    ("metamorph.cli", "write_manifest", "fileio.write", None),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one operation (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1)
            if annotate is not None:
                span.attrs = annotate(args)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every listed binding through the tracer; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name, annotate in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, annotate))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def layer_counts(spans: list[Span]) -> dict:
    """Metrics of one traced operation that must repeat exactly."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    grads = calls("dynamics.euclidean_objective_gradient")
    rhs = by_name.get("kernels.quad_form_grad_x", [])
    rhs_in_grad = sum(
        any(a.name == "dynamics.euclidean_objective_gradient" for a in _ancestors(spans, i))
        for i in rhs
    )
    return {
        "kernels.kernel_conv.calls": calls("kernels.kernel_conv"),
        "kernels.quad_form_grad_x.calls": calls("kernels.quad_form_grad_x"),
        "kernels.pair_bytes": sum(
            s.attrs["bytes"] for s in spans if s.name.startswith("kernels.")
        ),
        "fem.assemble_metric.calls": calls("fem.assemble_metric"),
        "fem.solve_spd.calls": calls("fem.solve_spd"),
        "varifold.fidelity.calls": calls("varifold.fidelity"),
        "varifold.grad_fidelity.calls": calls("varifold.grad_fidelity"),
        "varifold.varifold_inner.calls": calls("varifold.varifold_inner"),
        "fshape.cell_geometry.calls": calls("fshape.cell_geometry"),
        "dynamics.integrate_forward.calls": calls("dynamics.integrate_forward"),
        "dynamics.integrate_adjoint_backward.calls": calls("dynamics.integrate_adjoint_backward"),
        "dynamics.euclidean_objective_gradient.calls": grads,
        "dynamics.rhs_evals": len(rhs),
        "dynamics.rhs_evals_per_gradient": rhs_in_grad / grads if grads else 0.0,
        # Forward passes made by match itself: one per line-search candidate,
        # one at the start of each stage and one for the returned trajectory.
        "matching.objective_evals": sum(
            spans[s.parent].name == "matching.match"
            for s in spans
            if s.name == "dynamics.integrate_forward" and s.parent >= 0
        ),
    }


def layer_times(spans: list[Span]) -> dict:
    """Busy (inclusive) and self times of one traced operation, in seconds."""
    busy: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def self_time(name):
        return sum(
            (s.duration - child_time[i] for i, s in enumerate(spans) if s.name == name), 0.0
        )

    fidelity_targets = {
        i: s.attrs["target"] for i, s in enumerate(spans) if s.name == "varifold.fidelity"
    }
    target_self = sum(
        (
            s.duration
            for s in spans
            if s.name == "varifold.varifold_inner"
            and s.parent in fidelity_targets
            and s.attrs.get("self_of") == fidelity_targets[s.parent]
        ),
        0.0,
    )
    return {
        "kernels.kernel_conv.busy_s": busy.get("kernels.kernel_conv", 0.0),
        "kernels.quad_form_grad_x.busy_s": busy.get("kernels.quad_form_grad_x", 0.0),
        "kernels.quad_form.busy_s": busy.get("kernels.quad_form", 0.0),
        "fem.assemble_metric.busy_s": busy.get("fem.assemble_metric", 0.0),
        "fem.solve_spd.busy_s": busy.get("fem.solve_spd", 0.0),
        "fem.metric_form_grad_x.busy_s": busy.get("fem.metric_form_grad_x", 0.0),
        "varifold.fidelity.busy_s": busy.get("varifold.fidelity", 0.0),
        "varifold.grad_fidelity.busy_s": busy.get("varifold.grad_fidelity", 0.0),
        "varifold.varifold_inner.busy_s": busy.get("varifold.varifold_inner", 0.0),
        "varifold.target_self_s": target_self,
        "fshape.cell_geometry.busy_s": busy.get("fshape.cell_geometry", 0.0),
        "dynamics.integrate_forward.self_s": self_time("dynamics.integrate_forward"),
        "dynamics.integrate_adjoint_backward.self_s": self_time(
            "dynamics.integrate_adjoint_backward"
        ),
        "dynamics.euclidean_objective_gradient.self_s": self_time(
            "dynamics.euclidean_objective_gradient"
        ),
        "matching.self_s": self_time("matching.match"),
        "fileio.read_s": busy.get("fileio.read", 0.0),
        "fileio.write_s": busy.get("fileio.write", 0.0),
    }


def median_times(per_op: list[dict]) -> dict:
    """Median over traced operations of each time metric."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
