import json
import warnings

import numpy as np
import pytest

from metamorph import DiscreteFshape
from metamorph.cli import main
from metamorph.fileio import read_fshape, read_momenta, write_fshape, write_momenta

from conftest import triangle_strip


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "gamma_V": 1.0,
                "gamma_f": 1.0,
                "gamma_W": 20.0,
                "deformation_kernel": {
                    "family": "gaussian",
                    "terms": [{"weight": 1.0, "sigma": 0.5}],
                },
                "fidelity": {
                    "sigma_p": 0.3,
                    "sigma_f": 0.7,
                    "kt_mode": "unoriented_squared",
                },
                "metric": {"s": 0, "scheme": "lumped"},
                "n_steps": 6,
                "schedule": [{"scale_p": 1.0, "scale_f": 1.0, "iters": 25}],
                "step_init": 1.0,
                "grad_tol": 1e-8,
            }
        )
    )
    return path


@pytest.fixture
def mesh_pair(tmp_path):
    src = triangle_strip(8, seed=1)
    tgt = triangle_strip(8, seed=2)
    src_path = tmp_path / "src.fsh"
    tgt_path = tmp_path / "tgt.fsh"
    write_fshape(src_path, src)
    write_fshape(tgt_path, tgt)
    return src_path, tgt_path


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "ok.fsh"
    write_fshape(path, triangle_strip(3, seed=0))
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.fsh"
    path.write_text(
        "fshape 2 3 3 1\n0 0 0 0\n1 0 0 0\n2 0 0 0\n0 1 2\n"
    )  # collinear triangle
    assert main(["validate", str(path)]) == 1
    assert "degenerate" in capsys.readouterr().out


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such.fsh"]) == 1
    assert "error" in capsys.readouterr().err


def test_distance_prints_fidelity(mesh_pair, config_path, capsys):
    src_path, tgt_path = mesh_pair
    assert main(["distance", str(src_path), str(tgt_path), "--config", str(config_path)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0.0
    # distance of a mesh with itself is zero
    assert main(["distance", str(src_path), str(src_path), "--config", str(config_path)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0, abs=1e-12)


def test_shoot_writes_trajectory(mesh_pair, config_path, tmp_path):
    src_path, _ = mesh_pair
    src = read_fshape(src_path)
    p0_path = tmp_path / "p0.txt"
    pf_path = tmp_path / "pf.txt"
    write_momenta(p0_path, np.zeros_like(src.vertices))
    write_momenta(pf_path, np.zeros(src.n_vertices))
    out = tmp_path / "shoot_out"
    code = main(
        [
            "shoot",
            str(src_path),
            "--p0",
            str(p0_path),
            "--pf",
            str(pf_path),
            "--config",
            str(config_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "manifest.json").exists()
    assert len(list((out / "trajectory").glob("state_*.vtk"))) == 7


def test_shoot_refuses_existing_out(mesh_pair, config_path, tmp_path):
    src_path, _ = mesh_pair
    src = read_fshape(src_path)
    p0_path = tmp_path / "p0.txt"
    pf_path = tmp_path / "pf.txt"
    write_momenta(p0_path, np.zeros_like(src.vertices))
    write_momenta(pf_path, np.zeros(src.n_vertices))
    out = tmp_path / "already"
    out.mkdir()
    code = main(
        [
            "shoot",
            str(src_path),
            "--p0",
            str(p0_path),
            "--pf",
            str(pf_path),
            "--config",
            str(config_path),
            "--out",
            str(out),
        ]
    )
    assert code == 1


def test_cli_failure_leaves_no_output(mesh_pair, config_path, tmp_path):
    src_path, _ = mesh_pair
    out = tmp_path / "never"
    code = main(
        [
            "shoot",
            str(src_path),
            "--p0",
            "/no/such/p0.txt",
            "--pf",
            "/no/such/pf.txt",
            "--config",
            str(config_path),
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert not out.exists()
    assert not list(tmp_path.glob(".never-*"))


def test_match_self_and_manifest(mesh_pair, config_path, tmp_path, capsys):
    src_path, _ = mesh_pair
    out = tmp_path / "match_out"
    code = main(
        ["match", str(src_path), str(src_path), "--config", str(config_path), "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "match"
    assert manifest["config"]["gamma_W"] == 20.0
    assert set(manifest["input_hashes"]) == {"source", "target"}
    history = manifest["objective_history"]
    assert history[0][3] <= 1e-10  # self match: fidelity starts at zero
    assert (out / "p0.txt").exists() and (out / "pf.txt").exists()


def test_match_reproducible_bitwise(mesh_pair, config_path, tmp_path):
    src_path, tgt_path = mesh_pair
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(
            [
                "match",
                str(src_path),
                str(tgt_path),
                "--config",
                str(config_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "p0.txt").read_bytes() == (outs[1] / "p0.txt").read_bytes()
    assert (outs[0] / "pf.txt").read_bytes() == (outs[1] / "pf.txt").read_bytes()


def test_match_rerun_from_manifest_config(mesh_pair, config_path, tmp_path):
    # the manifest's config snapshot drives a bit-identical rerun
    src_path, tgt_path = mesh_pair
    first = tmp_path / "first"
    assert (
        main(
            [
                "match",
                str(src_path),
                str(tgt_path),
                "--config",
                str(config_path),
                "--out",
                str(first),
            ]
        )
        == 0
    )
    manifest = json.loads((first / "manifest.json").read_text())
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    second = tmp_path / "second"
    assert (
        main(
            [
                "match",
                str(src_path),
                str(tgt_path),
                "--config",
                str(replay_cfg),
                "--out",
                str(second),
            ]
        )
        == 0
    )
    assert (first / "p0.txt").read_bytes() == (second / "p0.txt").read_bytes()
    assert (first / "pf.txt").read_bytes() == (second / "pf.txt").read_bytes()


def test_sphere_oracle_constant_csv(tmp_path, capsys):
    out = tmp_path / "sphere.csv"
    code = main(
        [
            "sphere-oracle",
            "--r0", "0.8",
            "--f0", "0.3",
            "--rho0", "0",
            "--pf", "0",
            "--sigma", "0.3",
            "--gammaV", "1",
            "--gammaF", "1",
            "--steps", "10",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,r,f,rho,pf"
    assert len(rows) == 12
    values = {tuple(r.split(",")[1:]) for r in rows[1:]}
    assert len(values) == 1  # constant path


def test_sphere_oracle_bad_radius(tmp_path, capsys):
    code = main(
        [
            "sphere-oracle",
            "--r0", "-1",
            "--rho0", "0",
            "--pf", "0",
            "--sigma", "0.3",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1


def test_gradcheck_exit_code(mesh_pair, config_path, capsys):
    src_path, tgt_path = mesh_pair
    code = main(
        ["gradcheck", str(src_path), str(tgt_path), "--config", str(config_path), "--directions", "5"]
    )
    out = capsys.readouterr().out
    assert "max relative gradient error" in out
    assert code == 0


@pytest.mark.parametrize("directions", ["0", "-3"])
def test_gradcheck_refuses_fewer_than_one_direction(directions, mesh_pair, config_path, capsys):
    src_path, tgt_path = mesh_pair
    code = main(
        ["gradcheck", str(src_path), str(tgt_path), "--config", str(config_path), "--directions", directions]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "--directions" in captured.err
    assert "max relative gradient error" not in captured.out


def test_unknown_config_key_is_user_error(mesh_pair, tmp_path, capsys):
    src_path, tgt_path = mesh_pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gammaV": 1.0}))
    code = main(["distance", str(src_path), str(tgt_path), "--config", str(bad)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_non_finite_config_number_is_user_error(mesh_pair, tmp_path, capsys):
    # json writes and reads NaN although it is not standard JSON
    src_path, tgt_path = mesh_pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"step_init": float("nan")}))
    code = main(["distance", str(src_path), str(tgt_path), "--config", str(bad)])
    assert code == 1
    assert "step_init must be a finite number" in capsys.readouterr().err


def _shoot_args(src_path, config_path, tmp_path, pf=None):
    src = read_fshape(src_path)
    p0_path = tmp_path / "p0.txt"
    pf_path = tmp_path / "pf.txt"
    write_momenta(p0_path, np.zeros_like(src.vertices))
    write_momenta(pf_path, np.zeros(src.n_vertices) if pf is None else pf)
    return [
        "shoot",
        str(src_path),
        "--p0",
        str(p0_path),
        "--pf",
        str(pf_path),
        "--config",
        str(config_path),
        "--out",
        str(tmp_path / "shot"),
    ]


_PLY_HEAD = "ply\nformat ascii 1.0\n"
_PLY_PROPS = (
    "property float x\nproperty float y\nproperty float z\nproperty float signal\n"
    "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
)
_PLY_BODY = "0 0 0 0\n1 0 0 0\n0 1 0 0\n"


_MALFORMED_MESHES = {
    "count.ply": _PLY_HEAD + "element vertex abc\n" + _PLY_PROPS + _PLY_BODY + "3 0 1 2\n",
    "face.ply": _PLY_HEAD + "element vertex 3\n" + _PLY_PROPS + _PLY_BODY + "3 0 1 x\n",
    "format.ply": "ply\nformat\nelement vertex 3\n" + _PLY_PROPS + _PLY_BODY + "3 0 1 2\n",
    "huge.ply": _PLY_HEAD + "element vertex 10000000000000\n" + _PLY_PROPS + _PLY_BODY,
    "huge.off": "OFF\n10000000000000 1 0\n0 0 0\n",
    "property.ply": _PLY_HEAD + "element vertex 3\nproperty\n" + _PLY_PROPS + _PLY_BODY + "3 0 1 2\n",
    "negative.fsh": "fshape 2 3 -1 1\n0 1 2\n",
    "negative.off": "OFF\n-3 1 0\n3 0 1 2\n",
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_MESHES))
def test_malformed_mesh_is_user_error(name, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(_MALFORMED_MESHES[name])
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "internal error" not in err


def test_validate_reports_non_finite_vertex(tmp_path, capsys):
    path = tmp_path / "nan.fsh"
    path.write_text("fshape 2 3 3 1\n0 0 0 0\nnan 0 0 0\n0 1 0 0\n0 1 2\n")
    assert main(["validate", str(path)]) == 1
    assert "vertex 1: non-finite coordinates" in capsys.readouterr().out


@pytest.mark.parametrize("broken", ["mesh", "pf"])
def test_shoot_non_finite_input_is_user_error(broken, mesh_pair, config_path, tmp_path, capsys):
    src_path, _ = mesh_pair
    src = read_fshape(src_path)
    pf = np.zeros(src.n_vertices)
    if broken == "pf":
        pf[3] = np.nan
    else:
        vertices = src.vertices.copy()
        vertices[3, 0] = np.nan
        write_fshape(src_path, src.with_(vertices=vertices))
    assert main(_shoot_args(src_path, config_path, tmp_path, pf)) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("n_steps", [1, 10.7, True])
def test_bad_step_count_is_user_error(n_steps, mesh_pair, config_path, tmp_path, capsys):
    config = json.loads(config_path.read_text())
    config["n_steps"] = n_steps
    config_path.write_text(json.dumps(config))
    src_path, _ = mesh_pair
    assert main(_shoot_args(src_path, config_path, tmp_path)) == 1
    assert "n_steps" in capsys.readouterr().err


def test_shoot_divergence_is_user_error(config_path, tmp_path, capsys):
    config = json.loads(config_path.read_text())
    config["n_steps"] = 4
    config_path.write_text(json.dumps(config))
    src_path = tmp_path / "src.fsh"
    src = triangle_strip(4, seed=1)
    write_fshape(src_path, src)
    args = _shoot_args(src_path, config_path, tmp_path)
    write_momenta(tmp_path / "p0.txt", np.full_like(src.vertices, 1e200))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shot diverged:") and "step 1 of 4" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "shot").exists()


def _curve(n):
    pts = np.zeros((5, n))
    pts[:, 0] = np.linspace(0.0, 1.0, 5)
    pts[:, 1] = [0.0, 0.2, 0.0, -0.1, 0.1]
    cells = np.column_stack([np.arange(4), np.arange(1, 5)])
    return DiscreteFshape(pts, np.linspace(0.0, 1.0, 5), cells)


@pytest.mark.parametrize("command", ["distance", "match"])
@pytest.mark.parametrize(
    "source, target, dims",
    [
        (_curve(2), _curve(3), "source (d=1, n=2) and target (d=1, n=3)"),
        (_curve(3), triangle_strip(4, seed=3), "source (d=1, n=3) and target (d=2, n=3)"),
    ],
    ids=["curve2d-curve3d", "curve-surface"],
)
def test_mismatched_dimensions_are_user_error(
    command, source, target, dims, config_path, tmp_path, capsys
):
    src_path, tgt_path = tmp_path / "src.fsh", tmp_path / "tgt.fsh"
    write_fshape(src_path, source)
    write_fshape(tgt_path, target)
    args = [command, str(src_path), str(tgt_path), "--config", str(config_path)]
    if command == "match":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and dims in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_shoot_output_is_byte_identical_between_runs(mesh_pair, config_path, tmp_path):
    src_path, _ = mesh_pair
    src = read_fshape(src_path)
    rng = np.random.default_rng(3)
    p0_path = tmp_path / "p0.txt"
    pf_path = tmp_path / "pf.txt"
    write_momenta(p0_path, 0.3 * rng.standard_normal(src.vertices.shape))
    write_momenta(pf_path, 0.3 * rng.standard_normal(src.n_vertices))
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        args = ["shoot", str(src_path), "--p0", str(p0_path), "--pf", str(pf_path)]
        assert main(args + ["--config", str(config_path), "--out", str(out)]) == 0
        files = sorted((out / "trajectory").iterdir())
        runs.append({f.name: f.read_bytes() for f in files})
    assert "trajectory.csv" in runs[0] and len(runs[0]) == 8
    assert runs[0] == runs[1]
