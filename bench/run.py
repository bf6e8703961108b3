"""Benchmark of metamorph: geodesic shooting and matching, end to end and per layer.

    python3 bench/run.py --workload sphere_shoot --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from the seed, repeats its operation (one
shoot or one match) for about ``--seconds`` seconds, checks every output,
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``run_s``, ``peak_mem_mb``, ``final_J``);
with ``--trace 1`` untraced and traced operations alternate and the metrics
are the per-layer ones read from the spans, plus the tracing overhead. The
spans of a traced run are written to ``bench/out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sphere_shoot", "digits_match", "h1_match")
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_ROUNDS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs, for the tests"
    )
    return parser.parse_args(argv)


def import_metamorph() -> None:
    """Import metamorph from this checkout's src/, with the BLAS thread count
    pinned first, since it is read when NumPy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import metamorph

    if Path(metamorph.__file__).resolve().parent != src / "metamorph":
        raise ImportError(f"metamorph was imported from {metamorph.__file__}, not from {src}")


def import_seconds() -> float:
    """Median time to import metamorph in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import metamorph; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(child.stdout))
    return statistics.median(times)


@dataclass
class Op:
    """One attempted operation: its time and raw result, or its error."""

    traced: bool
    run_s: float | None = None
    raw: object = None
    tracer: object = None
    error: str | None = None


def measure(workload, seconds: float, trace: bool) -> list[Op]:
    """Run rounds of the operation until the next would end after `seconds`.

    A round is one untraced operation, or with tracing one untraced then one
    traced operation.
    """
    import spans

    ops = []
    round_times = []
    started = time.perf_counter()
    k = 0
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            op = Op(traced, tracer=spans.Tracer() if traced else None)
            context = spans.instrument(op.tracer) if traced else contextlib.nullcontext()
            try:
                with context:
                    t0 = time.perf_counter()
                    op.raw = workload.run(k)
                    op.run_s = time.perf_counter() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
            k += 1
        now = time.perf_counter()
        round_times.append(now - round_start)
        if len(round_times) >= MIN_ROUNDS and now - started + statistics.median(round_times) > seconds:
            return ops


def layer_metrics(workload, ops: list[Op], outputs):
    """Per-layer metrics of the traced operations, and count mismatches."""
    import spans

    traced = [(op, out) for op, out in zip(ops, outputs) if op.traced]
    counts = [spans.layer_counts(op.tracer.spans) for op, _ in traced]
    failures = [] if all(c == counts[0] for c in counts) else ["per-layer counts differ between traced runs"]
    failures += workload.check_counts(counts[0])
    metrics = dict(counts[0])
    metrics.update(spans.median_times([spans.layer_times(op.tracer.spans) for op, _ in traced]))
    out = traced[0][1]
    iterations = out["iterations"]
    evals = metrics["matching.objective_evals"]
    # Every match-level forward pass but the opening one of each stage and
    # the final trajectory pass is a line-search candidate.
    candidates = evals - workload.stages - 1 if evals else 0
    metrics["matching.iterations"] = iterations
    metrics["matching.accept_ratio"] = iterations / candidates if candidates > 0 else 0.0
    metrics["matching.forward_passes_per_iter"] = (
        metrics["dynamics.integrate_forward.calls"] / iterations if iterations else 0.0
    )
    metrics["fileio.bytes_written"] = out["bytes_written"]
    traced_s = statistics.median(op.run_s for op, _ in traced)
    untraced_s = statistics.median(op.run_s for op in ops if not op.traced)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    return metrics, failures, traced_s


def declared_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_metamorph()
    except ImportError as exc:
        print(f"error: cannot import metamorph from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        import_s = import_seconds()
        setup_times = []
        for i in range(SETUP_REPEATS):
            sub = workdir / f"setup-{i}"
            sub.mkdir()
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.size, sub)
            setup_times.append(time.perf_counter() - t0)
        ops = measure(workload, args.seconds, bool(args.trace))
        peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = [op.error for op in ops if op.error]
        for e in errors:
            print(f"error: {e}")
        times = [op.run_s for op in ops if not op.traced and not op.error]
        if not times or (args.trace and errors):
            print("error: nothing to report: operations failed", file=sys.stderr)
            return 1
        done = [op for op in ops if not op.error]
        outputs = [workload.collect(op.raw) for op in done]
        failures = workload.check(outputs)
        summary = [
            f"workload {args.workload} seed {args.seed} size {args.size}: {workload.describe}",
            f"BLAS threads {BLAS_THREADS}; {len(ops)} operations, {len(errors)} failed; "
            f"untraced run_s: median {statistics.median(times):.4f}, "
            f"min {min(times):.4f}, max {max(times):.4f}",
            workload.report(outputs[0]),
        ]
        if args.trace:
            metrics, count_failures, traced_s = layer_metrics(workload, done, outputs)
            failures += count_failures
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "ops": [
                            {"run_s": op.run_s, "spans": op.tracer.to_json()} for op in ops if op.traced
                        ],
                    }
                )
            )
            summary.append(f"traced run_s {traced_s:.4f}; spans written to {trace_path}")
            summary += [
                f"  {name:48s} {value / traced_s:7.1%} of the traced run"
                for name, value in metrics.items()
                if name.endswith("_s")
            ]
        else:
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "run_s": statistics.median(times),
                "peak_mem_mb": peak_mem_mb,
                "final_J": outputs[0]["final_J"],
            }
        for line in summary + [f"check failed: {f}" for f in failures]:
            print(line)
        units = declared_units(bool(args.trace))
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        result = {
            "correct": not failures,
            "attempted": len(ops),
            "failed": len(errors),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
