"""Fast tests of the benchmark itself: every check rejects a deliberately
wrong output, and a tiny size of every workload runs end to end.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import workloads
from metamorph import dynamics

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sphere(tmp_path_factory):
    wl = workloads.SphereShoot(3, "smoke", tmp_path_factory.mktemp("sphere"))
    return wl, wl.collect(wl.run(0))


@pytest.fixture(scope="module")
def digits(tmp_path_factory):
    wl = workloads.DigitsMatch(3, "smoke", tmp_path_factory.mktemp("digits"))
    out_dir = wl.run(0)
    return wl, wl.collect(out_dir), out_dir


@pytest.fixture(scope="module")
def h1(tmp_path_factory):
    wl = workloads.H1Match(3, "smoke", tmp_path_factory.mktemp("h1"))
    return wl, wl.collect(wl.run(0))


def test_sphere_checks_pass_on_the_program_output(sphere):
    wl, out = sphere
    assert wl.check([out]) == []


def test_oracle_check_rejects_a_wrong_oracle_radius(sphere):
    wl, out = sphere
    oracle = wl.oracle_end()
    wrong = replace(oracle, radius=oracle.radius * 1.05)
    assert workloads.check_oracle(out["x"], out["f"], oracle) == []
    assert workloads.check_oracle(out["x"], out["f"], wrong)


def test_sphere_checks_reject_a_shifted_end_mesh(sphere):
    wl, out = sphere
    shifted = dict(out, x=out["x"] + np.array([0.02, 0.0, 0.0]))
    assert workloads.check_radii(shifted["x"])
    assert wl.check([shifted])


def test_pf_check_rejects_a_changed_momentum_byte(sphere):
    wl, out = sphere
    pf = out["pf_states"][-1].copy()
    pf.view(np.uint8)[5] ^= 1
    assert workloads.check_pf_constant(out["pf_states"], wl.state0.pf) == []
    assert workloads.check_pf_constant(out["pf_states"][:-1] + [pf], wl.state0.pf)


def test_rhs_count_check():
    assert workloads.check_rhs_count(8, 2) == []
    assert workloads.check_rhs_count(9, 2)


def test_digits_checks_pass_on_the_program_output(digits):
    wl, out, _ = digits
    assert wl.check([out, out]) == []


def test_monotone_check_rejects_a_non_decreasing_history(digits):
    wl, out, _ = digits
    history = [list(row) for row in out["history"]]
    assert workloads.check_monotone(history, wl.stages) == []
    accepted = next(k for k in range(1, len(history)) if history[k][0] == history[k - 1][0] + 1)
    history[accepted][1] = history[accepted - 1][1]
    assert workloads.check_monotone(history, wl.stages)
    assert workloads.check_monotone(out["history"], wl.stages + 1)


def test_identical_check_rejects_a_changed_momentum_byte(digits):
    _, out, _ = digits
    changed = bytearray(out["momenta"])
    changed[3] = ord("7") if changed[3] != ord("7") else ord("8")
    assert workloads.check_identical([out["momenta"], out["momenta"]]) == []
    assert workloads.check_identical([out["momenta"], bytes(changed)])


def test_own_distance_check_rejects_a_shifted_end_mesh(digits):
    wl, out, out_dir = digits
    vertices, signals, triangles = reference.read_vtk(
        out_dir / "trajectory" / f"state_{wl.n_steps:04d}.vtk"
    )
    shifted = reference.varifold_distance(
        (vertices + np.array([0.05, 0.0, 0.0]), signals, triangles),
        wl.target,
        wl.SIGMA_P,
        wl.SIGMA_F,
    )
    reported = out["history"][-1][3]
    assert workloads.check_own_distance(reported, out["own_fidelity"]) == []
    assert workloads.check_own_distance(reported, shifted)


def test_reduction_check_rejects_a_fidelity_that_barely_fell(digits):
    wl, out, _ = digits
    history = [list(row) for row in out["history"]]
    assert workloads.check_reduction(history, wl.FIDELITY_REDUCTION) == []
    history[-1][3] = 0.5 * history[0][3]
    assert workloads.check_reduction(history, wl.FIDELITY_REDUCTION)


def test_gradient_check_rejects_a_scaled_gradient(h1, monkeypatch):
    wl, out = h1
    rng = np.random.default_rng(0)
    assert workloads.check_gradient(workloads.gradient_errors(out["p0"], out["pf"], wl.problem, rng)) == []
    exact = dynamics.euclidean_objective_gradient
    monkeypatch.setattr(
        dynamics,
        "euclidean_objective_gradient",
        lambda p0, pf, problem: tuple(1.01 * g for g in exact(p0, pf, problem)),
    )
    assert workloads.check_gradient(workloads.gradient_errors(out["p0"], out["pf"], wl.problem, rng))


def _run(capsys, monkeypatch, *args):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert run.main([*args, "--size", "smoke", "--seconds", "0.5"]) == 0
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, capsys, monkeypatch):
    result = _run(capsys, monkeypatch, "--workload", workload, "--seed", "2", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = [
        _run(capsys, monkeypatch, "--workload", workload, "--seed", "2", "--trace", "1")
        for _ in range(2)
    ]
    assert all(r["correct"] and r["failed"] == 0 for r in traced)
    assert set(traced[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for r in traced
    ]
    assert counts[0] == counts[1]
    assert counts[0]["dynamics.rhs_evals"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "h1_match", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_failed_operations_are_counted(capsys, monkeypatch):
    shoot = workloads.SphereShoot.run

    def every_other_fails(self, k):
        if k % 2:
            raise RuntimeError("deliberate failure")
        return shoot(self, k)

    monkeypatch.setattr(workloads.SphereShoot, "run", every_other_fails)
    result = _run(capsys, monkeypatch, "--workload", "sphere_shoot", "--seed", "2", "--trace", "0")
    assert result["correct"]
    assert result["failed"] == result["attempted"] // 2 and result["failed"] >= 1
