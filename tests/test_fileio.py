import json

import numpy as np
import pytest

from metamorph import DiscreteFshape, DynamicsConfig, ShootingState, integrate_forward
from metamorph.fileio import (
    DEFAULT_CONFIG,
    UserError,
    config_from_dict,
    config_to_dict,
    load_config,
    read_fshape,
    read_momenta,
    write_fshape,
    write_momenta,
    write_trajectory,
)
from metamorph.matching import digits_preset

from conftest import triangle_strip


def _curve():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.25, 0.0], [2.0, 0.0, 0.5]])
    return DiscreteFshape(pts, [0.5, -1.0, 2.0], [[0, 1], [1, 2]])


@pytest.mark.parametrize("ext", [".fsh", ".ply", ".off"])
def test_round_trip_surface(tmp_path, ext):
    fs = triangle_strip(4, seed=0)
    path = tmp_path / f"mesh{ext}"
    write_fshape(path, fs)
    back = read_fshape(path)
    np.testing.assert_array_equal(back.vertices, fs.vertices)
    np.testing.assert_array_equal(back.signals, fs.signals)
    np.testing.assert_array_equal(back.cells, fs.cells)
    # a second round trip is byte-identical
    path2 = tmp_path / f"mesh2{ext}"
    write_fshape(path2, back)
    assert path.read_text() == path2.read_text()


def test_round_trip_curve_fsh(tmp_path):
    fs = _curve()
    path = tmp_path / "curve.fsh"
    write_fshape(path, fs)
    back = read_fshape(path)
    np.testing.assert_array_equal(back.vertices, fs.vertices)
    np.testing.assert_array_equal(back.cells, fs.cells)
    assert back.dim_d == 1


def test_curve_rejected_by_surface_formats(tmp_path):
    fs = _curve()
    for ext in (".ply", ".off"):
        with pytest.raises(UserError):
            write_fshape(tmp_path / f"curve{ext}", fs)


def test_fsh_parse_error_line_number(tmp_path):
    path = tmp_path / "bad.fsh"
    path.write_text("fshape 2 3 3 1\n0 0 0 0\n1 0 0 zero\n0 1 0 0\n0 1 2\n")
    with pytest.raises(UserError, match="bad.fsh:3"):
        read_fshape(path)


def test_ply_missing_signal_defaults_zero(tmp_path):
    path = tmp_path / "plain.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    )
    with pytest.warns(UserWarning, match="signal"):
        fs = read_fshape(path)
    np.testing.assert_array_equal(fs.signals, np.zeros(3))


def test_ply_rejects_quads(tmp_path):
    path = tmp_path / "quad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    )
    with pytest.warns(UserWarning, match="no 'signal' vertex property"):
        with pytest.raises(UserError, match="triangle"):
            read_fshape(path)


def test_off_one_based_rejected(tmp_path):
    path = tmp_path / "onebased.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 1 2 3\n")
    with pytest.raises(UserError, match="1-based"):
        read_fshape(path)


def test_off_missing_sidecar_warns(tmp_path):
    path = tmp_path / "nosig.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.warns(UserWarning, match="sidecar"):
        fs = read_fshape(path)
    np.testing.assert_array_equal(fs.signals, np.zeros(3))


def test_off_sidecar_count_mismatch(tmp_path):
    path = tmp_path / "short.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    (tmp_path / "short.signal").write_text("1.0\n2.0\n")
    with pytest.raises(UserError, match="signal"):
        read_fshape(path)


def test_unknown_extension(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text("whatever")
    with pytest.raises(UserError, match="extension"):
        read_fshape(path)


def test_missing_file():
    with pytest.raises(UserError, match="no such file"):
        read_fshape("/nonexistent/mesh.fsh")


def test_momenta_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    p0 = rng.standard_normal((5, 3))
    path = tmp_path / "p0.txt"
    write_momenta(path, p0)
    back = read_momenta(path, (5, 3))
    np.testing.assert_array_equal(back, p0)  # 17 significant digits round-trip


def test_momenta_shape_check(tmp_path):
    path = tmp_path / "pf.txt"
    write_momenta(path, np.ones(4))
    with pytest.raises(UserError, match="expected"):
        read_momenta(path, (5,))


def test_momenta_non_finite_rejected(tmp_path):
    path = tmp_path / "pf.txt"
    path.write_text("0.5\nnan\n1.0\n")
    with pytest.raises(UserError, match="non-finite value nan at entry 1"):
        read_momenta(path, (3,))


def test_write_trajectory_outputs(tmp_path):
    from metamorph import FunctionalMetric, RadialKernelSpec

    fs = triangle_strip(4, seed=2)
    cfg = DynamicsConfig(
        1.0,
        1.0,
        RadialKernelSpec("gaussian", ((1.0, 0.5),)),
        FunctionalMetric(0, "lumped"),
        n_steps=5,
    )
    state0 = ShootingState(
        fs.vertices, fs.signals, np.zeros_like(fs.vertices), np.zeros(fs.n_vertices)
    )
    traj = integrate_forward(state0, fs, cfg)
    out = tmp_path / "out"
    write_trajectory(out, fs, traj, cfg)
    vtks = sorted(out.glob("state_*.vtk"))
    assert len(vtks) == cfg.n_steps + 1
    # constant trajectory: all snapshots identical
    contents = {p.read_text() for p in vtks}
    assert len(contents) == 1
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,hamiltonian,volume,min_signal,max_signal"
    assert len(csv) == cfg.n_steps + 2
    hvals = [float(row.split(",")[1]) for row in csv[1:]]
    assert all(h == 0.0 for h in hvals)


def test_write_trajectory_hamiltonian_column_constant(tmp_path):
    from metamorph import FunctionalMetric, RadialKernelSpec
    from metamorph.fem import lumped_vertex_weights

    fs = triangle_strip(6, seed=3)
    cfg = DynamicsConfig(
        1.0,
        1.0,
        RadialKernelSpec("gaussian", ((1.0, 0.5),)),
        FunctionalMetric(0, "lumped"),
        n_steps=20,
    )
    areas = lumped_vertex_weights(fs)
    rng = np.random.default_rng(4)
    state0 = ShootingState(
        fs.vertices,
        fs.signals,
        rng.standard_normal(fs.vertices.shape) * areas[:, None],
        rng.standard_normal(fs.n_vertices) * areas,
    )
    traj = integrate_forward(state0, fs, cfg)
    out = tmp_path / "geo"
    write_trajectory(out, fs, traj, cfg)
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    hvals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.abs(hvals - hvals[0]).max() / abs(hvals[0]) < 1e-6


def _h1_shot(n_steps=6):
    from metamorph import FunctionalMetric, RadialKernelSpec

    fs = triangle_strip(6, seed=5)
    cfg = DynamicsConfig(
        1.0,
        0.5,
        RadialKernelSpec("gaussian", ((1.0, 0.5),)),
        FunctionalMetric(1, "p1"),
        n_steps=n_steps,
    )
    rng = np.random.default_rng(6)
    state0 = ShootingState(
        fs.vertices,
        fs.signals,
        0.3 * rng.standard_normal(fs.vertices.shape),
        0.3 * rng.standard_normal(fs.n_vertices),
    )
    return fs, cfg, integrate_forward(state0, fs, cfg)


def test_write_trajectory_hamiltonian_column_equals_reduced_hamiltonian(tmp_path):
    from metamorph.dynamics import reduced_hamiltonian

    fs, cfg, traj = _h1_shot()
    write_trajectory(tmp_path / "geo", fs, traj, cfg)
    rows = (tmp_path / "geo" / "trajectory.csv").read_text().splitlines()[1:]
    hvals = np.array([float(r.split(",")[1]) for r in rows])
    expected = np.array([reduced_hamiltonian(s, fs, cfg) for s in traj.states])
    np.testing.assert_allclose(hvals, expected, rtol=1e-12, atol=0.0)


def test_write_trajectory_assembles_one_metric(tmp_path, monkeypatch):
    import metamorph.dynamics as dynamics

    fs, cfg, traj = _h1_shot()
    calls = []
    original = dynamics.assemble_metric
    monkeypatch.setattr(
        dynamics, "assemble_metric", lambda *a: calls.append(1) or original(*a)
    )
    write_trajectory(tmp_path / "geo", fs, traj, cfg)
    assert len(calls) == 1


def test_default_config_is_the_digits_preset():
    assert config_to_dict(digits_preset()) == DEFAULT_CONFIG
    assert config_from_dict({}) == digits_preset()


def test_config_round_trip_and_unknown_keys(tmp_path):
    cfg = config_from_dict({})
    snapshot = config_to_dict(cfg)
    again = config_from_dict(json.loads(json.dumps(snapshot)))
    assert config_to_dict(again) == snapshot
    with pytest.raises(UserError, match="unknown key"):
        config_from_dict({"gamma_v": 1.0})
    with pytest.raises(UserError, match="unknown key"):
        config_from_dict({"metric": {"s": 0, "lumping": True}})
    with pytest.raises(UserError, match="unknown key"):
        config_from_dict({"schedule": [{"scale_p": 1.0, "scale_f": 1.0, "n": 3}]})


@pytest.mark.parametrize(
    "data",
    [
        {"n_steps": 10.7},
        {"n_steps": True},
        {"n_steps": "10"},
        {"schedule": [{"scale_p": 1.0, "scale_f": 1.0, "iters": 2.5}]},
        {"metric": {"s": True, "scheme": "p1"}},
    ],
)
def test_config_integer_fields_reject_non_integers(data):
    with pytest.raises(UserError, match="must be an integer"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"gamma_V": True},
        {"gamma_f": "2"},
        {"gamma_W": "20"},
        {"step_init": float("nan")},
        {"grad_tol": float("inf")},
        {"fidelity": {"sigma_p": True, "sigma_f": 1.0}},
        {"fidelity": {"sigma_p": 1.0, "sigma_f": float("-inf")}},
        {"deformation_kernel": {"family": "gaussian", "terms": [{"weight": "1", "sigma": 0.5}]}},
        {"deformation_kernel": {"family": "gaussian", "terms": [{"weight": 1.0, "sigma": None}]}},
        {"schedule": [{"scale_p": float("nan"), "scale_f": 1.0, "iters": 2}]},
        {"schedule": [{"scale_p": 1.0, "scale_f": False, "iters": 2}]},
    ],
)
def test_config_real_fields_reject_non_finite_and_non_numbers(data):
    with pytest.raises(UserError, match="must be a finite number"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data,message",
    [
        ({"fidelity": {"sigma_p": 0.1}}, "config: missing fidelity.sigma_f"),
        ({"metric": {"scheme": "lumped"}}, "config: missing metric.s"),
        ({"schedule": "abc"}, "config: schedule must be a list of objects"),
        ({"deformation_kernel": "x"}, "config: deformation_kernel must be an object"),
    ],
)
def test_config_names_missing_and_wrong_typed_values(data, message):
    with pytest.raises(UserError) as excinfo:
        config_from_dict(data)
    assert str(excinfo.value) == message


def test_config_integral_float_is_accepted():
    assert config_from_dict({"n_steps": 12.0}).n_steps == 12


def test_retired_fd_epsilon_key_is_rejected(tmp_path):
    # the adjoint's difference step is a constant, not a setting
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"n_steps": 10, "fd_epsilon": None}))
    with pytest.raises(UserError, match="unknown key"):
        load_config(path)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "gamma_V": 2.0,
                "metric": {"s": 1, "scheme": "p1"},
                "fidelity": {"sigma_p": 0.1, "sigma_f": 0.5, "kt_mode": "oriented_linear"},
            }
        )
    )
    cfg = load_config(path)
    assert cfg.gamma_V == 2.0
    assert cfg.metric.order == 1
    assert cfg.fidelity_kernels.kt.mode == "oriented_linear"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(UserError, match="JSON"):
        load_config(bad)
