import numpy as np
import pytest
from scipy.optimize import minimize

from metamorph import (
    DiscreteFshape,
    FunctionalMetric,
    GrassmannKernelSpec,
    MatchConfig,
    MatchProblem,
    RadialKernelSpec,
    ShootingDiverged,
    ShootingState,
    VarifoldKernels,
    fidelity,
    match,
    objective,
    shoot,
    to_varifold,
)
from metamorph.dynamics import euclidean_objective_gradient
from metamorph.matching import ScaleStage
from metamorph.meshes import icosphere

from conftest import triangle_strip


def _kernels(sigma_p=0.3, sigma_f=0.7):
    return VarifoldKernels(
        kp=RadialKernelSpec("gaussian", ((1.0, sigma_p),)),
        kf=RadialKernelSpec("gaussian", ((1.0, sigma_f),)),
        kt=GrassmannKernelSpec("unoriented_squared"),
    )


def _config(**overrides):
    base = dict(
        gamma_V=1.0,
        gamma_f=1.0,
        gamma_W=10.0,
        deformation_kernel=RadialKernelSpec("gaussian", ((1.0, 0.5),)),
        fidelity_kernels=_kernels(),
        metric=FunctionalMetric(0, "lumped"),
        n_steps=8,
        scale_schedule=(ScaleStage(1.0, 1.0, 50),),
        step_init=1.0,
        grad_tol=1e-8,
    )
    base.update(overrides)
    return MatchConfig(**base)


def _problem(source, target, cfg):
    return MatchProblem(
        template=source,
        target=to_varifold(target),
        fidelity_kernels=cfg.fidelity_kernels,
        gamma_W=cfg.gamma_W,
        dynamics=cfg.dynamics(),
    )


def test_objective_zero_momenta_is_fidelity():
    src = triangle_strip(4, seed=0)
    tgt = triangle_strip(4, seed=1)
    cfg = _config()
    problem = _problem(src, tgt, cfg)
    p0 = np.zeros_like(src.vertices)
    pf = np.zeros(src.n_vertices)
    J, energy, fid, _ = objective(p0, pf, problem)
    assert energy == 0.0
    assert fid == pytest.approx(
        fidelity(src, to_varifold(tgt), cfg.fidelity_kernels), rel=1e-13
    )
    assert J == pytest.approx(cfg.gamma_W * fid, rel=1e-13)


def test_objective_self_match_zero():
    src = triangle_strip(4, seed=2)
    cfg = _config()
    problem = _problem(src, src, cfg)
    J, energy, fid, _ = objective(
        np.zeros_like(src.vertices), np.zeros(src.n_vertices), problem
    )
    norm = float(
        to_varifold(src).weights @ to_varifold(src).weights
    )  # scale reference
    assert J <= 1e-12 * max(norm, 1.0)


def test_objective_monotone_in_gamma_w():
    src = triangle_strip(4, seed=3)
    tgt = triangle_strip(4, seed=4)
    rng = np.random.default_rng(5)
    p0 = 0.1 * rng.standard_normal(src.vertices.shape)
    pf = 0.1 * rng.standard_normal(src.n_vertices)
    values = []
    for gw in (1.0, 5.0, 25.0):
        cfg = _config(gamma_W=gw)
        J, _, fid, _ = objective(p0, pf, _problem(src, tgt, cfg))
        values.append(J)
        assert fid > 0
    assert values[0] < values[1] < values[2]


def test_match_h1_descent_reaches_lbfgs_reference():
    # H1 signal metric: the pf step must follow the template metric D(x0),
    # or its high-frequency components barely move within the budget
    src = icosphere(1, radius=1.0)
    x = src.vertices
    tgt = src.with_(
        signals=np.sin(3 * x[:, 0]) * np.sin(3 * x[:, 1]) + 0.3 * np.cos(4 * x[:, 2])
    )
    cfg = _config(
        gamma_V=50.0,
        gamma_f=0.3,
        gamma_W=20.0,
        fidelity_kernels=_kernels(sigma_p=0.4),
        metric=FunctionalMetric(1, "p1"),
        n_steps=2,
        scale_schedule=(ScaleStage(1.0, 1.0, 60),),
    )
    J_match = match(src, tgt, cfg).objective_history[-1][1]

    problem = _problem(src, tgt, cfg)
    P = src.n_vertices

    def J_and_grad(z):
        p0, pf = z[: 3 * P].reshape(P, 3), z[3 * P :]
        gp, gpf = euclidean_objective_gradient(p0, pf, problem)
        return objective(p0, pf, problem)[0], np.concatenate([gp.ravel(), gpf])

    reference = minimize(
        J_and_grad, np.zeros(4 * P), jac=True, method="L-BFGS-B", options={"maxiter": 50}
    )
    assert J_match <= 1.02 * reference.fun


def test_match_self_terminates_immediately():
    src = triangle_strip(4, seed=6)
    cfg = _config()
    result = match(src, src, cfg)
    assert result.converged
    assert result.reason == "gradient tolerance reached"
    assert np.abs(result.p0).max() == 0.0
    assert np.abs(result.pf).max() == 0.0
    J0 = result.objective_history[0][1]
    assert result.objective_history[-1][1] <= max(J0, 1e-15)


def test_match_translated_triangle():
    # small translated triangle pair: fidelity drops below 10% of initial
    src = DiscreteFshape(
        vertices=[[0.0, 0, 0], [0.4, 0, 0], [0.0, 0.4, 0]],
        signals=[0.0, 0.0, 0.0],
        cells=[[0, 1, 2]],
    )
    tgt = src.with_(vertices=src.vertices + np.array([0.1, 0.0, 0.0]))
    cfg = _config(
        fidelity_kernels=_kernels(sigma_p=0.3),
        scale_schedule=(ScaleStage(1.0, 1.0, 200),),
        gamma_W=50.0,
    )
    result = match(src, tgt, cfg)
    fid0 = result.objective_history[0][3]
    fid1 = result.objective_history[-1][3]
    assert fid1 < 0.10 * fid0
    assert len(result.objective_history) <= 201


def test_match_history_strictly_decreasing_within_stage():
    src = triangle_strip(4, seed=7)
    tgt = triangle_strip(4, seed=8)
    cfg = _config(
        scale_schedule=(ScaleStage(2.0, 2.0, 10), ScaleStage(1.0, 1.0, 10))
    )
    result = match(src, tgt, cfg)
    # stage boundaries restart the J sequence; within a stage it must decrease
    stage_values = []
    previous_iter = -1
    current: list[float] = []
    for it, J, _, _ in result.objective_history:
        if it == previous_iter:  # new stage re-evaluates at the same iterate
            stage_values.append(current)
            current = [J]
        else:
            current.append(J)
        previous_iter = it
    stage_values.append(current)
    for seq in stage_values:
        assert all(b < a for a, b in zip(seq, seq[1:]))


def test_match_shoots_each_momenta_once(monkeypatch):
    import metamorph.dynamics
    import metamorph.matching

    shots = []
    original = metamorph.dynamics.integrate_forward

    def recording(state0, template, cfg):
        shots.append(state0.p.tobytes() + state0.pf.tobytes())
        return original(state0, template, cfg)

    for module in (metamorph.dynamics, metamorph.matching):
        monkeypatch.setattr(module, "integrate_forward", recording)
    src = triangle_strip(4, seed=7)
    tgt = triangle_strip(4, seed=8)
    cfg = _config(scale_schedule=(ScaleStage(2.0, 2.0, 4), ScaleStage(1.0, 1.0, 4)))
    result = match(src, tgt, cfg)
    assert result.objective_history[-1][0] == 8
    assert len(shots) == len(set(shots))


def _patch_first_candidate(monkeypatch, broken_shot):
    """Route match's shots through a wrapper whose first candidate (the
    second shot; the first is the opening shot at zero momenta) runs
    broken_shot instead; returns the list of shot indices seen."""
    import metamorph.matching

    original = metamorph.matching.integrate_forward
    seen = []

    def shot(state0, template, cfg):
        seen.append(len(seen))
        if len(seen) == 2:
            return broken_shot(original, state0, template, cfg)
        return original(state0, template, cfg)

    monkeypatch.setattr(metamorph.matching, "integrate_forward", shot)
    return seen


def test_match_line_search_propagates_other_errors(monkeypatch):
    def planted(original, state0, template, cfg):
        raise ValueError("planted failure")

    _patch_first_candidate(monkeypatch, planted)
    src = triangle_strip(4, seed=7)
    tgt = triangle_strip(4, seed=8)
    with pytest.raises(ValueError, match="planted failure") as info:
        match(src, tgt, _config(scale_schedule=(ScaleStage(1.0, 1.0, 3),)))
    assert not isinstance(info.value, ShootingDiverged)


def test_match_rejects_diverging_candidate(monkeypatch):
    caught = []

    def diverging(original, state0, template, cfg):
        # a non-finite signal momentum makes the metric solve fail
        nan_pf = np.full_like(state0.pf, np.nan)
        try:
            return original(ShootingState(state0.x, state0.f, state0.p, nan_pf), template, cfg)
        except ShootingDiverged as exc:
            caught.append(exc)
            raise

    seen = _patch_first_candidate(monkeypatch, diverging)
    src = triangle_strip(4, seed=7)
    tgt = triangle_strip(4, seed=8)
    result = match(src, tgt, _config(scale_schedule=(ScaleStage(1.0, 1.0, 3),)))
    assert len(caught) == 1 and "non-finite" in str(caught[0])
    assert len(seen) > 2
    values = [J for _, J, _, _ in result.objective_history]
    assert result.objective_history[-1][0] == 3
    assert all(b < a for a, b in zip(values, values[1:]))


def test_match_deterministic_bitwise():
    src = triangle_strip(4, seed=9)
    tgt = triangle_strip(4, seed=10)
    cfg = _config(scale_schedule=(ScaleStage(1.0, 1.0, 15),))
    r1 = match(src, tgt, cfg)
    r2 = match(src, tgt, cfg)
    assert np.array_equal(r1.p0, r2.p0)
    assert np.array_equal(r1.pf, r2.pf)
    assert r1.objective_history == r2.objective_history


def test_shoot_zero_momenta_constant():
    src = triangle_strip(4, seed=11)
    cfg = _config()
    traj = shoot(src, np.zeros_like(src.vertices), np.zeros(src.n_vertices), cfg)
    for s in traj.states:
        np.testing.assert_array_equal(s.x, src.vertices)


def test_shoot_reproduces_match_trajectory():
    src = triangle_strip(4, seed=12)
    tgt = triangle_strip(4, seed=13)
    cfg = _config(scale_schedule=(ScaleStage(1.0, 1.0, 10),))
    result = match(src, tgt, cfg)
    again = shoot(src, result.p0, result.pf, cfg)
    for a, b in zip(result.trajectory.states, again.states):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.p, b.p)


def test_match_rejects_dimension_mismatch():
    src = triangle_strip(4, seed=14)
    curve = DiscreteFshape(
        vertices=[[0.0, 0.0], [1.0, 0.0]], signals=[0.0, 0.0], cells=[[0, 1]]
    )
    with pytest.raises(ValueError):
        match(src, curve, _config())


def test_match_config_validation():
    with pytest.raises(ValueError):
        _config(gamma_V=-1.0)
    with pytest.raises(ValueError):
        _config(scale_schedule=())
    with pytest.raises(ValueError, match="n_steps"):
        _config(n_steps=1)
