import logging

import numpy as np
import pytest

from efs import (
    BackwardConfig,
    InstabilityError,
    ParticleSet,
    PotentialParams,
    SingularityError,
    augmented_forward_map,
    invert_step,
    potential_gradient,
    potential_value,
    prox_objective,
    run_backward,
    run_forward,
)
from efs.backward import _prox_gradient, mean_field_gradient
from efs.rng import SplitMix64

from conftest import fd_gradient


def random_set(n, d, seed=0, scale=1.0):
    return ParticleSet(SplitMix64(seed).normals(n * d).reshape(n, d) * scale)


# ---------------------------------------------------------------- config

def test_config_validation():
    BackwardConfig(gamma=0.0, beta=0.1, T=1)  # gamma = 0 is a legal degenerate run
    with pytest.raises(ValueError):
        BackwardConfig(gamma=-0.1, beta=0.1, T=10)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=0.1, beta=0.0, T=10)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=0.1, beta=0.1, T=0)
    with pytest.raises(ValueError):
        BackwardConfig(gamma=0.1, beta=0.1, T=10, grad_tol=-1.0)


# ---------------------------------------------------------------- objective

def test_objective_zero_at_anchor_gamma_zero():
    snap = random_set(5, 2, seed=1)
    cfg = BackwardConfig(gamma=0.0, beta=0.1, T=10)
    p = PotentialParams(1.0, 0.01)
    v = np.array([0.3, -0.2])
    assert prox_objective(v, v, snap, cfg, p) == 0.0


def test_objective_hand_example():
    # n=1 snapshot at origin, v = anchor = (2,0): -0.1 * W((2,0)) = -0.25
    snap = ParticleSet([[0.0, 0.0]])
    cfg = BackwardConfig(gamma=0.1, beta=0.1, T=10)
    p = PotentialParams(1.0, 0.0)
    assert prox_objective([2.0, 0.0], [2.0, 0.0], snap, cfg, p) == pytest.approx(-0.25)


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_objective_gradient_consistency(s):
    snap = random_set(8, 2, seed=2)
    cfg = BackwardConfig(gamma=0.05, beta=0.1, T=10)
    p = PotentialParams(s, 0.05)
    anchor = np.array([0.4, 0.1])
    rng = SplitMix64(3)
    for _ in range(10):
        v = rng.normals(2)
        g = _prox_gradient(v, anchor, snap, cfg, p)
        g_fd = fd_gradient(lambda u: prox_objective(u, anchor, snap, cfg, p), v)
        np.testing.assert_allclose(g_fd, g, rtol=1e-5, atol=1e-8)
        # and the closed form from the update rule
        np.testing.assert_allclose(
            g, v - anchor - cfg.gamma * mean_field_gradient(v, snap, p), atol=0)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
def test_mean_field_sums_match_pairwise_loop(s, d):
    # d=1 leaves no coordinate after the first in the squared-norm sum, d=3
    # more than one; both must equal the scalar W and grad W averaged over x
    snap = random_set(30, d, seed=5)
    cfg = BackwardConfig(gamma=0.05, beta=0.1, T=10)
    p = PotentialParams(s, 1e-2)
    anchor = np.zeros(d)
    for v in SplitMix64(6).normals(4 * d).reshape(4, d):
        mean_grad = sum(potential_gradient(v - xa, p) for xa in snap.positions) / snap.n
        mean_w = sum(potential_value(v - xa, p) for xa in snap.positions) / snap.n
        np.testing.assert_allclose(mean_field_gradient(v, snap, p), mean_grad,
                                   rtol=1e-12, atol=1e-14)
        assert prox_objective(v, anchor, snap, cfg, p) == pytest.approx(
            0.5 * float(v @ v) - cfg.gamma * mean_w, rel=1e-12, abs=1e-14)


def test_augmented_forward_map_definition():
    snap = random_set(6, 2, seed=4)
    p = PotentialParams(1.0, 0.01)
    y = np.array([1.0, -0.5])
    np.testing.assert_array_equal(
        augmented_forward_map(y, snap, 0.07, p),
        y - 0.07 * mean_field_gradient(y, snap, p))


# ---------------------------------------------------------------- invert_step

def test_invert_gamma_zero_returns_anchor():
    snap = random_set(5, 2, seed=5)
    cfg = BackwardConfig(gamma=0.0, beta=0.5, T=50)
    y = np.array([0.7, 0.2])
    v, res = invert_step(y, snap, cfg, PotentialParams(1.0, 0.01))
    np.testing.assert_array_equal(v, y)
    assert res == 0.0


def test_invert_undoes_forward_map():
    # construction oracle: forward-map random points, invert, compare
    snap = random_set(50, 2, seed=6, scale=2.0)
    p = PotentialParams(1.0, 1e-3)
    gamma = 0.01
    cfg = BackwardConfig(gamma=gamma, beta=0.5, T=500, grad_tol=1e-12)
    rng = SplitMix64(7)
    for _ in range(20):
        y = rng.normals(2) * 2.0
        mapped = augmented_forward_map(y, snap, gamma, p)
        v, res = invert_step(mapped, snap, cfg, p)
        assert np.linalg.norm(v - y) <= 1e-8
        # the inversion identity holds at the returned point
        np.testing.assert_allclose(
            augmented_forward_map(v, snap, gamma, p), mapped, atol=1e-10)


def test_invert_monotone_inner_descent():
    # with gamma under the convexity guard, H decreases along inner iterates
    snap = random_set(30, 2, seed=8)
    p = PotentialParams(1.0, 0.1)
    cfg = BackwardConfig(gamma=0.003, beta=0.5, T=200)
    y = np.array([1.5, -0.7])
    v = y.copy()
    prev = prox_objective(v, y, snap, cfg, p)
    for _ in range(50):
        v = v - cfg.beta * _prox_gradient(v, y, snap, cfg, p)
        cur = prox_objective(v, y, snap, cfg, p)
        assert cur <= prev + 1e-12
        prev = cur


def test_invert_divergence_raises():
    snap = random_set(10, 2, seed=9)
    p = PotentialParams(1.0, 1e-6)  # enormous curvature near particles
    cfg = BackwardConfig(gamma=0.5, beta=1e12, T=200)
    with pytest.raises(InstabilityError, match="beta"):
        invert_step(snap.positions[0] + 1e-4, snap, cfg, p)


def test_invert_from_a_snapshot_particle_at_zero_epsilon_raises():
    # at eps = 0 the pair with the coincident particle is singular, so the
    # first gradient raises before any step
    snap = random_set(10, 2, seed=9)
    cfg = BackwardConfig(gamma=0.1, beta=0.1, T=10)
    with pytest.raises(SingularityError, match="coincident points: zero separation"):
        invert_step(snap.positions[3], snap, cfg, PotentialParams(1.0, 0.0), _warn=False)


def test_one_point_sites_raise_at_a_snapshot_particle_at_zero_epsilon():
    snap = random_set(10, 2, seed=9)
    p = PotentialParams(1.0, 0.0)
    x = snap.positions[3]
    cfg = BackwardConfig(gamma=0.1, beta=0.1, T=10)
    for site in (lambda: mean_field_gradient(x, snap, p),
                 lambda: augmented_forward_map(x, snap, 0.1, p),
                 lambda: prox_objective(x, x, snap, cfg, p)):
        with pytest.raises(SingularityError, match="epsilon=0"):
            site()
    # off the particles the same eps = 0 gradient is finite and raises nothing
    assert np.all(np.isfinite(mean_field_gradient(x + 0.5, snap, p)))


def test_run_backward_names_the_step_of_a_zero_separation():
    ps = random_set(12, 2, seed=12)
    p = PotentialParams(1.0, 0.0)
    traj = run_forward(ps, 0.005, 4, p)
    cfg = BackwardConfig(gamma=0.005, beta=0.5, T=50)
    # paper mode inverts step 4 against x^(4) first, from one of its particles
    with pytest.raises(SingularityError, match="^backward step j=4: coincident"):
        run_backward(traj.snapshots[-1].positions[2], traj, cfg, _warn=False)


def test_convexity_guard_warning(caplog):
    snap = random_set(10, 2, seed=10)
    p = PotentialParams(1.0, 0.1)
    bad = BackwardConfig(gamma=1.0, beta=0.01, T=5)
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        invert_step(np.zeros(2), snap, bad, p)
    assert any("convexity guard" in r.message for r in caplog.records)
    caplog.clear()
    good = BackwardConfig(gamma=0.001, beta=0.01, T=5)
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        invert_step(np.zeros(2), snap, good, p)
    assert not any("convexity guard" in r.message for r in caplog.records)


def test_invert_overshooting_beta_converges():
    # at a snapshot particle the Hessian of H is ~1 + gamma/n * eps^(-3/2),
    # about 13.6 here, so beta=0.5 overshoots (beta * lambda > 2): plain
    # fixed steps oscillate, the safeguarded solver still converges
    snap = random_set(25, 2, seed=0, scale=2.0)
    p = PotentialParams(1.0, 1e-3)
    gamma = 0.01
    cfg = BackwardConfig(gamma=gamma, beta=0.5, T=500, grad_tol=1e-13)
    for x in snap.positions:
        mapped = augmented_forward_map(x, snap, gamma, p)
        v = mapped.copy()
        for _ in range(cfg.T):
            v = v - cfg.beta * _prox_gradient(v, mapped, snap, cfg, p)
        plain = np.linalg.norm(_prox_gradient(v, mapped, snap, cfg, p))
        assert plain > 1e3 * cfg.grad_tol
        w, res = invert_step(mapped, snap, cfg, p, _warn=False)
        assert res <= cfg.grad_tol
        assert np.linalg.norm(w - x) <= 1e-8


def test_invert_keeps_plain_steps_when_they_descend():
    # the Hessian of H is ~1 here, so beta=1.8 overshoots the minimum along
    # every direction but still contracts (beta * lambda < 2): the iterates
    # are plain gradient descent bit for bit
    snap = random_set(30, 2, seed=8)
    p = PotentialParams(1.0, 0.1)
    cfg = BackwardConfig(gamma=0.003, beta=1.8, T=7, grad_tol=0.0)
    y = np.array([1.5, -0.7])
    v = y.copy()
    for _ in range(cfg.T):
        v = v - cfg.beta * _prox_gradient(v, y, snap, cfg, p)
    w, _res = invert_step(y, snap, cfg, p, _warn=False)
    np.testing.assert_array_equal(w, v)


# ---------------------------------------------------------------- run_backward

def test_run_backward_gamma_zero_identity():
    ps = random_set(6, 2, seed=11)
    p = PotentialParams(1.0, 0.01)
    traj = run_forward(ps, 0.0, 1, p)
    cfg = BackwardConfig(gamma=0.0, beta=0.1, T=10)
    y = np.array([0.3, 0.9])
    path = run_backward(y, traj, cfg)
    assert path.points.shape == (2, 2)
    np.testing.assert_array_equal(path.points[0], y)
    np.testing.assert_array_equal(path.generated, y)


def test_run_backward_shapes_and_modes():
    ps = random_set(12, 2, seed=12)
    p = PotentialParams(1.0, 0.05)
    traj = run_forward(ps, 0.005, 4, p)
    cfg = BackwardConfig(gamma=0.005, beta=0.5, T=200)
    for mode in ("paper", "exact"):
        path = run_backward(np.array([0.5, 0.5]), traj, cfg, snapshot_mode=mode)
        assert path.points.shape == (5, 2)
        assert path.inner_residuals.shape == (4,)
    with pytest.raises(ValueError):
        run_backward(np.array([0.5, 0.5]), traj, cfg, snapshot_mode="bogus")


def test_run_backward_gamma_mismatch_warns(caplog):
    ps = random_set(8, 2, seed=13)
    p = PotentialParams(1.0, 0.05)
    traj = run_forward(ps, 0.005, 2, p)
    cfg = BackwardConfig(gamma=0.004, beta=0.5, T=50)
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        run_backward(np.array([0.1, 0.1]), traj, cfg)
    assert any("differs from trajectory gamma" in r.message for r in caplog.records)


def test_run_backward_cap_warning(caplog):
    ps = random_set(12, 2, seed=12)
    p = PotentialParams(1.0, 0.05)
    traj = run_forward(ps, 0.005, 4, p)
    capped = BackwardConfig(gamma=0.005, beta=0.5, T=2, grad_tol=1e-13)
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        path = run_backward(np.array([0.5, 0.5]), traj, capped)
    caps = [r.message for r in caplog.records if "cap" in r.message]
    assert len(caps) == 1  # once per call, not once per inversion
    assert "4 of 4 inversions" in caps[0]
    assert f"{path.inner_residuals.max():.3g}" in caps[0]
    caplog.clear()
    enough = BackwardConfig(gamma=0.005, beta=0.5, T=200)
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        run_backward(np.array([0.5, 0.5]), traj, enough)
    assert not any("cap" in r.message for r in caplog.records)


def test_run_backward_deterministic():
    ps = random_set(20, 2, seed=14, scale=2.0)
    p = PotentialParams(1.0, 1e-3)
    traj = run_forward(ps, 0.01, 6, p)
    cfg = BackwardConfig(gamma=0.01, beta=0.5, T=300)
    y = np.array([1.2, -0.3])
    a = run_backward(y, traj, cfg, snapshot_mode="exact")
    b = run_backward(y, traj, cfg, snapshot_mode="exact")
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.inner_residuals, b.inner_residuals)


def test_run_backward_exact_mode_recovers_augmented_chain():
    # push one augmented point forward alongside the trajectory snapshots,
    # then invert the whole chain in exact mode
    ps = random_set(40, 2, seed=15, scale=2.0)
    p = PotentialParams(1.0, 1e-3)
    gamma = 0.01
    traj = run_forward(ps, gamma, 5, p)
    y = np.array([0.8, 1.1])
    chain = [y]
    for j in range(5):
        chain.append(augmented_forward_map(chain[-1], traj.snapshots[j], gamma, p))
    cfg = BackwardConfig(gamma=gamma, beta=0.5, T=500, grad_tol=1e-13)
    path = run_backward(chain[-1], traj, cfg, snapshot_mode="exact")
    for step, target in enumerate(reversed(chain)):
        assert np.linalg.norm(path.points[step] - target) <= 1e-8
