"""Mesh/signal file formats, JSON configuration and run manifests.

Supported mesh formats:

* ``.fsh``  native text format, curves and surfaces: header
  ``fshape d n P T`` followed by P vertex lines (n coordinates + signal) and
  T cell-index lines (0-based).
* ``.ply``  ASCII PLY with a per-vertex float property ``signal`` and
  triangle faces (surfaces only).
* ``.off``  OFF plus a ``.signal`` sidecar file, one value per line
  (surfaces only).

All floats are written with 17 significant digits so that read -> write ->
read round-trips are bit exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fem import FunctionalMetric
from .fshape import DiscreteFshape
from .kernels import GrassmannKernelSpec, RadialKernelSpec
from .matching import MatchConfig, ScaleStage, digits_preset
from .varifold import VarifoldKernels

FLOAT_FMT = "%.17g"


class UserError(Exception):
    """Bad input from the outside world (files, configs, CLI arguments)."""


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _count(token: str, where: str) -> int:
    """A nonnegative integer read from a header field."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise UserError(f"{where}: expected a nonnegative integer, got {token!r}")
    return value


# ---------------------------------------------------------------------------
# native .fsh format


def _read_fsh(path: Path) -> DiscreteFshape:
    lines = path.read_text().splitlines()
    if not lines:
        raise UserError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "fshape":
        raise UserError(f"{path}:1: expected header 'fshape d n P T'")
    d, n, P, T = (_count(tok, f"{path}:1") for tok in header[1:])
    if len(lines) < 1 + P + T:
        raise UserError(f"{path}: expected {1 + P + T} lines, found {len(lines)}")
    vertices = np.zeros((P, n))
    signals = np.zeros(P)
    for k in range(P):
        lineno = 2 + k
        parts = lines[1 + k].split()
        if len(parts) != n + 1:
            raise UserError(f"{path}:{lineno}: expected {n + 1} numbers per vertex line")
        try:
            values = [float(tok) for tok in parts]
        except ValueError:
            raise UserError(f"{path}:{lineno}: malformed number") from None
        vertices[k] = values[:n]
        signals[k] = values[n]
    cells = np.zeros((T, d + 1), dtype=np.int64)
    for k in range(T):
        lineno = 2 + P + k
        parts = lines[1 + P + k].split()
        if len(parts) != d + 1:
            raise UserError(f"{path}:{lineno}: expected {d + 1} indices per cell line")
        try:
            cells[k] = [int(tok) for tok in parts]
        except ValueError:
            raise UserError(f"{path}:{lineno}: malformed index") from None
    _check_indices(path, cells, P)
    try:
        return DiscreteFshape(vertices=vertices, signals=signals, cells=cells)
    except ValueError as exc:
        raise UserError(f"{path}: {exc}") from None


def _write_fsh(path: Path, fs: DiscreteFshape) -> None:
    out = [f"fshape {fs.dim_d} {fs.dim_n} {fs.n_vertices} {fs.n_cells}"]
    for xk, fk in zip(fs.vertices, fs.signals):
        out.append(" ".join(_fmt(v) for v in xk) + " " + _fmt(fk))
    for cell in fs.cells:
        out.append(" ".join(str(i) for i in cell))
    path.write_text("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# ASCII PLY with per-vertex "signal" property


def _read_ply(path: Path) -> DiscreteFshape:
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise UserError(f"{path}:1: not a PLY file")
    n_vertices = n_faces = None
    vertex_props: list[str] = []
    element = None
    idx = 1
    fmt_seen = False
    while idx < len(lines):
        parts = lines[idx].split()
        idx += 1
        if not parts or parts[0] == "comment":
            continue
        if len(parts) < {"format": 2, "element": 3, "property": 3}.get(parts[0], 0):
            raise UserError(f"{path}:{idx}: incomplete {parts[0]} line")
        if parts[0] == "format":
            if parts[1] != "ascii":
                raise UserError(f"{path}:{idx}: only ascii PLY is supported")
            fmt_seen = True
        elif parts[0] == "element":
            element = parts[1]
            if element == "vertex":
                n_vertices = _count(parts[2], f"{path}:{idx}")
            elif element == "face":
                n_faces = _count(parts[2], f"{path}:{idx}")
            else:
                raise UserError(f"{path}:{idx}: unsupported element type '{element}'")
        elif parts[0] == "property":
            if element == "vertex":
                if parts[1] == "list":
                    raise UserError(f"{path}:{idx}: list property on vertices")
                vertex_props.append(parts[-1])
        elif parts[0] == "end_header":
            break
    else:
        raise UserError(f"{path}: missing end_header")
    if not fmt_seen:
        raise UserError(f"{path}: missing format line")
    if n_vertices is None or n_faces is None:
        raise UserError(f"{path}: missing vertex or face element")
    for axis in ("x", "y", "z"):
        if axis not in vertex_props:
            raise UserError(f"{path}: vertex property '{axis}' missing")
    if idx + n_vertices + n_faces > len(lines):
        raise UserError(
            f"{path}: header declares {n_vertices} vertices and {n_faces} faces, "
            f"but {len(lines) - idx} data lines follow"
        )
    has_signal = "signal" in vertex_props
    if not has_signal:
        warnings.warn(f"{path}: no 'signal' vertex property, defaulting to 0")
    cols = {name: i for i, name in enumerate(vertex_props)}

    vertices = np.zeros((n_vertices, 3))
    signals = np.zeros(n_vertices)
    for k in range(n_vertices):
        lineno = idx + k + 1
        parts = lines[idx + k].split()
        if len(parts) != len(vertex_props):
            raise UserError(f"{path}:{lineno}: expected {len(vertex_props)} vertex values")
        try:
            values = [float(tok) for tok in parts]
        except ValueError:
            raise UserError(f"{path}:{lineno}: malformed number") from None
        vertices[k] = [values[cols["x"]], values[cols["y"]], values[cols["z"]]]
        if has_signal:
            signals[k] = values[cols["signal"]]
    faces = np.zeros((n_faces, 3), dtype=np.int64)
    base = idx + n_vertices
    for k in range(n_faces):
        lineno = base + k + 1
        parts = lines[base + k].split()
        try:
            count = int(parts[0])
        except (ValueError, IndexError):
            raise UserError(f"{path}:{lineno}: malformed face line") from None
        if count != 3 or len(parts) != 4:
            raise UserError(f"{path}:{lineno}: only triangle faces are supported")
        try:
            faces[k] = [int(tok) for tok in parts[1:]]
        except ValueError:
            raise UserError(f"{path}:{lineno}: malformed face index") from None
    _check_indices(path, faces, n_vertices)
    try:
        return DiscreteFshape(vertices=vertices, signals=signals, cells=faces)
    except ValueError as exc:
        raise UserError(f"{path}: {exc}") from None


def _write_ply(path: Path, fs: DiscreteFshape) -> None:
    if fs.dim_d != 2 or fs.dim_n != 3:
        raise UserError("PLY output requires a triangle mesh in R^3")
    out = [
        "ply",
        "format ascii 1.0",
        f"element vertex {fs.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
        "property double signal",
        f"element face {fs.n_cells}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for xk, fk in zip(fs.vertices, fs.signals):
        out.append(" ".join(_fmt(v) for v in xk) + " " + _fmt(fk))
    for cell in fs.cells:
        out.append("3 " + " ".join(str(i) for i in cell))
    path.write_text("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# OFF + .signal sidecar


def _signal_sidecar(path: Path) -> Path:
    return path.with_suffix(".signal")


def _read_off(path: Path) -> DiscreteFshape:
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0]
        tokens.extend((lineno, tok) for tok in body.split())
    if not tokens or tokens[0][1] != "OFF":
        raise UserError(f"{path}:1: missing OFF header")
    pos = 1

    def take(count, what):
        nonlocal pos
        if pos + count > len(tokens):
            raise UserError(f"{path}: truncated while reading {what}")
        out = tokens[pos : pos + count]
        pos += count
        return out

    counts = take(3, "counts")
    n_vertices, n_faces, _ = (_count(tok, f"{path}:{lineno}") for lineno, tok in counts)
    if pos + 3 * n_vertices + 4 * n_faces > len(tokens):
        raise UserError(
            f"{path}: counts declare {n_vertices} vertices and {n_faces} triangles, "
            f"but {len(tokens) - pos} values follow"
        )
    vertices = np.zeros((n_vertices, 3))
    for k in range(n_vertices):
        chunk = take(3, f"vertex {k}")
        try:
            vertices[k] = [float(tok) for _, tok in chunk]
        except ValueError:
            raise UserError(f"{path}:{chunk[0][0]}: malformed vertex coordinate") from None
    faces = np.zeros((n_faces, 3), dtype=np.int64)
    for k in range(n_faces):
        head = take(1, f"face {k}")
        try:
            count = int(head[0][1])
        except ValueError:
            raise UserError(f"{path}:{head[0][0]}: malformed face size") from None
        if count != 3:
            raise UserError(f"{path}:{head[0][0]}: only triangle faces are supported")
        chunk = take(3, f"face {k}")
        try:
            faces[k] = [int(tok) for _, tok in chunk]
        except ValueError:
            raise UserError(f"{path}:{chunk[0][0]}: malformed face index") from None
    _check_indices(path, faces, n_vertices)
    sidecar = _signal_sidecar(path)
    if sidecar.exists():
        try:
            signals = np.array(
                [float(tok) for tok in sidecar.read_text().split()], dtype=float
            )
        except ValueError:
            raise UserError(f"{sidecar}: malformed signal value") from None
        if signals.shape != (n_vertices,):
            raise UserError(
                f"{sidecar}: {signals.size} signal values for {n_vertices} vertices"
            )
    else:
        warnings.warn(f"{path}: no {sidecar.name} sidecar, defaulting signal to 0")
        signals = np.zeros(n_vertices)
    try:
        return DiscreteFshape(vertices=vertices, signals=signals, cells=faces)
    except ValueError as exc:
        raise UserError(f"{path}: {exc}") from None


def _write_off(path: Path, fs: DiscreteFshape) -> None:
    if fs.dim_d != 2 or fs.dim_n != 3:
        raise UserError("OFF output requires a triangle mesh in R^3")
    out = ["OFF", f"{fs.n_vertices} {fs.n_cells} 0"]
    for xk in fs.vertices:
        out.append(" ".join(_fmt(v) for v in xk))
    for cell in fs.cells:
        out.append("3 " + " ".join(str(i) for i in cell))
    path.write_text("\n".join(out) + "\n")
    _signal_sidecar(path).write_text(
        "\n".join(_fmt(v) for v in fs.signals) + "\n"
    )


def _check_indices(path: Path, cells: np.ndarray, n_vertices: int) -> None:
    if cells.size == 0:
        return
    if cells.min() >= 1 and cells.max() == n_vertices:
        raise UserError(
            f"{path}: cell indices look 1-based (min {cells.min()}, max {cells.max()} "
            f"== vertex count); this reader requires 0-based indices"
        )
    if cells.min() < 0 or cells.max() >= n_vertices:
        raise UserError(
            f"{path}: cell index {cells.max() if cells.max() >= n_vertices else cells.min()} "
            f"out of range [0, {n_vertices})"
        )


# ---------------------------------------------------------------------------
# dispatch


_READERS = {".fsh": _read_fsh, ".ply": _read_ply, ".off": _read_off}
_WRITERS = {".fsh": _write_fsh, ".ply": _write_ply, ".off": _write_off}


def read_fshape(path) -> DiscreteFshape:
    """Read a textured mesh; the format is chosen by the file extension."""
    path = Path(path)
    if not path.exists():
        raise UserError(f"{path}: no such file")
    reader = _READERS.get(path.suffix.lower())
    if reader is None:
        raise UserError(f"{path}: unsupported extension {path.suffix!r}")
    return reader(path)


def write_fshape(path, fs: DiscreteFshape) -> None:
    """Write a textured mesh; the format is chosen by the file extension."""
    path = Path(path)
    writer = _WRITERS.get(path.suffix.lower())
    if writer is None:
        raise UserError(f"{path}: unsupported extension {path.suffix!r}")
    writer(path, fs)


# ---------------------------------------------------------------------------
# momenta matrices


def read_momenta(path, shape: tuple[int, ...]) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise UserError(f"{path}: no such file")
    try:
        data = np.loadtxt(path, dtype=float)
    except ValueError as exc:
        raise UserError(f"{path}: {exc}") from None
    data = np.atleast_1d(data)
    if data.size != int(np.prod(shape)):
        raise UserError(f"{path}: expected {shape} values, found shape {data.shape}")
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise UserError(f"{path}: non-finite value {data.flat[bad[0]]} at entry {bad[0]}")
    return data.reshape(shape)


def write_momenta(path, values: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(values), fmt=FLOAT_FMT)


# ---------------------------------------------------------------------------
# legacy VTK PolyData trajectory export


def _write_vtk(path: Path, fs: DiscreteFshape) -> None:
    out = [
        "# vtk DataFile Version 3.0",
        "textured mesh snapshot",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {fs.n_vertices} double",
    ]
    for xk in fs.vertices:
        coords = list(xk) + [0.0] * (3 - fs.dim_n)
        out.append(" ".join(_fmt(v) for v in coords))
    m = fs.dim_d + 1
    section = "POLYGONS" if fs.dim_d == 2 else "LINES"
    out.append(f"{section} {fs.n_cells} {fs.n_cells * (m + 1)}")
    for cell in fs.cells:
        out.append(f"{m} " + " ".join(str(i) for i in cell))
    out.append(f"POINT_DATA {fs.n_vertices}")
    out.append("SCALARS signal double 1")
    out.append("LOOKUP_TABLE default")
    for fk in fs.signals:
        out.append(_fmt(fk))
    path.write_text("\n".join(out) + "\n")


def write_trajectory(out_dir, template: DiscreteFshape, traj, cfg) -> None:
    """Write one VTK PolyData file per time sample plus an index CSV.

    The CSV lists, per sample: time, reduced Hamiltonian, total d-volume, and
    the signal range. The Hamiltonian comes from the velocities the forward
    pass recorded; only the last sample, where the flow field was never
    evaluated, calls ``reduced_hamiltonian``.
    """
    from .dynamics import reduced_hamiltonian
    from .fshape import cell_geometry

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["t,hamiltonian,volume,min_signal,max_signal"]
    times = traj.times
    for k, state in enumerate(traj.states):
        fs_k = template.with_(vertices=state.x, signals=state.f)
        _write_vtk(out_dir / f"state_{k:04d}.vtk", fs_k)
        if k < traj.n_steps:
            H = traj.hamiltonian(k)
        else:
            H = reduced_hamiltonian(state, template, cfg)
        volume = float(cell_geometry(fs_k).volumes.sum())
        rows.append(
            ",".join(
                [_fmt(times[k]), _fmt(H), _fmt(volume), _fmt(state.f.min()), _fmt(state.f.max())]
            )
        )
    (out_dir / "trajectory.csv").write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# JSON configuration


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise UserError(f"config: unknown key(s) {sorted(unknown)} in {where}")


def _integer(value, where: str) -> int:
    """A JSON number with an integral value; booleans, strings and fractions fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise UserError(f"config: {where} must be an integer, got {value!r}")
    return int(value)


def _real(value, where: str) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise UserError(f"config: {where} must be a finite number, got {value!r}")
    return float(value)


def config_from_dict(data: dict) -> MatchConfig:
    """Build a MatchConfig from a JSON-style dict; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise UserError("config: top level must be a JSON object")
    _reject_unknown(data, set(DEFAULT_CONFIG), "top level")
    merged = {**DEFAULT_CONFIG, **data}
    try:
        kern = merged["deformation_kernel"]
        _reject_unknown(kern, {"family", "terms"}, "deformation_kernel")
        terms = []
        for item in kern["terms"]:
            _reject_unknown(item, {"weight", "sigma"}, "deformation_kernel.terms")
            weight = _real(item["weight"], "deformation_kernel.terms.weight")
            terms.append((weight, _real(item["sigma"], "deformation_kernel.terms.sigma")))
        deformation = RadialKernelSpec(kern["family"], tuple(terms))
        fid = merged["fidelity"]
        _reject_unknown(fid, {"sigma_p", "sigma_f", "kt_mode"}, "fidelity")
        kernels = VarifoldKernels(
            kp=RadialKernelSpec("gaussian", ((1.0, _real(fid["sigma_p"], "fidelity.sigma_p")),)),
            kf=RadialKernelSpec("gaussian", ((1.0, _real(fid["sigma_f"], "fidelity.sigma_f")),)),
            kt=GrassmannKernelSpec(fid.get("kt_mode", "unoriented_squared")),
        )
        met = merged["metric"]
        _reject_unknown(met, {"s", "scheme"}, "metric")
        metric = FunctionalMetric(_integer(met["s"], "metric.s"), met.get("scheme", "p1"))
        stages = []
        for item in merged["schedule"]:
            _reject_unknown(item, {"scale_p", "scale_f", "iters"}, "schedule")
            iters = _integer(item["iters"], "schedule.iters")
            scale_p = _real(item["scale_p"], "schedule.scale_p")
            scale_f = _real(item["scale_f"], "schedule.scale_f")
            stages.append(ScaleStage(scale_p, scale_f, iters))
        return MatchConfig(
            gamma_V=_real(merged["gamma_V"], "gamma_V"),
            gamma_f=_real(merged["gamma_f"], "gamma_f"),
            gamma_W=_real(merged["gamma_W"], "gamma_W"),
            deformation_kernel=deformation,
            fidelity_kernels=kernels,
            metric=metric,
            n_steps=_integer(merged["n_steps"], "n_steps"),
            scale_schedule=tuple(stages),
            step_init=_real(merged["step_init"], "step_init"),
            grad_tol=_real(merged["grad_tol"], "grad_tol"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UserError(f"config: {exc}") from None


def load_config(path) -> MatchConfig:
    path = Path(path)
    if not path.exists():
        raise UserError(f"{path}: no such file")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UserError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(data)


def config_to_dict(cfg: MatchConfig) -> dict:
    """Round-trippable JSON snapshot of a MatchConfig."""
    return {
        "gamma_V": cfg.gamma_V,
        "gamma_f": cfg.gamma_f,
        "gamma_W": cfg.gamma_W,
        "deformation_kernel": {
            "family": cfg.deformation_kernel.family,
            "terms": [
                {"weight": w, "sigma": s} for w, s in cfg.deformation_kernel.terms
            ],
        },
        "fidelity": {
            "sigma_p": cfg.fidelity_kernels.kp.terms[0][1],
            "sigma_f": cfg.fidelity_kernels.kf.terms[0][1],
            "kt_mode": cfg.fidelity_kernels.kt.mode,
        },
        "metric": {"s": cfg.metric.order, "scheme": cfg.metric.scheme},
        "n_steps": cfg.n_steps,
        "schedule": [
            {"scale_p": st.scale_p, "scale_f": st.scale_f, "iters": st.iters}
            for st in cfg.scale_schedule
        ],
        "step_init": cfg.step_init,
        "grad_tol": cfg.grad_tol,
    }


DEFAULT_CONFIG: dict = config_to_dict(digits_preset())


# ---------------------------------------------------------------------------
# run manifest


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written at the end of a CLI run."""

    command: str
    config: dict
    input_hashes: dict
    versions: dict
    timings: dict
    objective_history: list

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def tool_versions() -> dict:
    import platform

    from . import __version__

    return {
        "metamorph": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def write_manifest(path, manifest: RunManifest) -> None:
    """Atomic JSON write: temp file in the target directory, then rename."""
    path = Path(path)
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".manifest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
