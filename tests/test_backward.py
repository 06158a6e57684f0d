import logging
import math

import numpy as np
import pytest

from efs import (
    BackwardConfig,
    BackwardPath,
    InstabilityError,
    ParticleSet,
    PotentialParams,
    SingularityError,
    augmented_forward_map,
    forward_gradient,
    gaussian_mixture,
    invert_step,
    potential_gradient,
    potential_value,
    prox_objective,
    run_backward,
    run_forward,
    swiss_roll,
)
from efs.backward import (DESCENT_C, MAX_HALVINGS, _prox_gradient, _Workspace,
                          mean_field_gradient)
from efs.forward import pair_blocks
from efs.potential import pair_value
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


@pytest.mark.parametrize("field", ["gamma", "beta", "grad_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_values(field, value):
    fields = dict(gamma=0.1, beta=0.1, T=10, grad_tol=1e-10)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        BackwardConfig(**fields)


@pytest.mark.parametrize("value", [2.5, 2.0, float("nan"), float("inf"), "10", None])
def test_config_rejects_a_T_that_is_not_an_integer(value):
    with pytest.raises(ValueError, match="^T must be an integer >= 1, got "):
        BackwardConfig(gamma=0.1, beta=0.1, T=value)
    assert BackwardConfig(gamma=0.1, beta=0.1, T=np.int64(3)).T == 3


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


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5])
def test_objective_is_the_one_row_pair_block_bit_for_bit(s, d):
    # H's fill sums the squares and eps in pair_blocks' order, so its pair
    # values are those of the one row block of pair_blocks(v[None], x)
    snap = random_set(37, d, seed=d)
    cfg = BackwardConfig(gamma=0.07, beta=0.1, T=10)
    p = PotentialParams(s, 1e-3)
    rng = SplitMix64(int(10 * s) + d)
    for _ in range(20):
        v, anchor = 2.0 * rng.normals(d), rng.normals(d)
        (_i0, _i1, _t, sq), = pair_blocks(v[None], snap.positions)
        mean_w = float(pair_value(sq, sq + p.epsilon, s).sum()) / snap.n
        dv = v - anchor
        ref = 0.5 * float(dv @ dv) - cfg.gamma * mean_w
        assert prox_objective(v, anchor, snap, cfg, p) == ref
        assert prox_objective(v.tolist(), anchor.tolist(), snap, cfg, p) == ref


def _row_loop_gradient(v, positions, p):
    # the mean-field gradient written out row by row, one fresh array per step
    t = np.subtract(v[:, None], positions.T, order="C")
    q = t[0] * t[0]
    for tk in t[1:]:
        q += tk * tk
    q += p.epsilon
    c = 1.0 - 1.0 / q if p.s == 0 else 1.0 - 1.0 / (q * q ** (p.s / 2))
    return t @ c / len(positions)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5])
def test_workspace_gradient_is_the_row_loop_bit_for_bit(s, d):
    snap = random_set(37, d, seed=13)
    p = PotentialParams(s, 1e-3)
    cfg = BackwardConfig(gamma=0.05, beta=0.1, T=10)
    work = _Workspace(snap, p)
    vs = SplitMix64(14).normals(5 * d).reshape(5, d)
    anchor = vs[-1] * 0.5
    expected = [_row_loop_gradient(v, snap.positions, p) for v in vs]
    # several points on one workspace, the first again at the end: no state
    # carries over from one call to the next
    results = []
    for v, want in zip([*vs, vs[0]], [*expected, expected[0]]):
        g = mean_field_gradient(v, snap, p, work)
        assert g.tobytes() == want.tobytes()
        assert mean_field_gradient(v, snap, p).tobytes() == want.tobytes()
        # the inner loop passes its list of d floats
        assert mean_field_gradient(v.tolist(), snap, p, work).tobytes() == want.tobytes()
        prox = np.array(_prox_gradient(v, anchor, snap, cfg, p, work))
        assert prox.tobytes() == (v - anchor - cfg.gamma * want).tobytes()
        results.append(g)
    # every result is a new array, not a view of the workspace
    for g, want in zip(results, [*expected, expected[0]]):
        assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, d", [(7, 1), (37, 3), (400, 2), (501, 2)])
def test_workspace_arrays_start_on_a_cache_line(n, d):
    # one allocation cut into cols, t, w and q wherever malloc puts it
    snap = random_set(n, d, seed=15)
    work = _Workspace(snap, PotentialParams(1.0, 1e-3))
    for a in (work.cols, work.t, work.w, work.sq, work.q):
        assert a.ctypes.data % 64 == 0
    assert work.cols.tobytes() == np.ascontiguousarray(snap.positions.T).tobytes()
    assert np.all(work.w[-1] == 1e-3) and work.q.shape == (n,)


def test_workspace_gradient_raises_at_a_snapshot_particle_at_zero_epsilon():
    snap = random_set(10, 3, seed=9)
    p = PotentialParams(1.0, 0.0)
    work = _Workspace(snap, p)
    with pytest.raises(SingularityError, match="epsilon=0"):
        mean_field_gradient(snap.positions[3], snap, p, work)
    # the workspace stays usable off the particles
    v = snap.positions[3] + 0.5
    assert (mean_field_gradient(v, snap, p, work).tobytes()
            == _row_loop_gradient(v, snap.positions, p).tobytes())


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
        v = v - cfg.beta * np.array(_prox_gradient(v, y, snap, cfg, p))
        cur = prox_objective(v, y, snap, cfg, p)
        assert cur <= prev + 1e-12
        prev = cur


def test_invert_divergence_raises():
    snap = random_set(10, 2, seed=9)
    p = PotentialParams(1.0, 1e-6)  # enormous curvature near particles
    cfg = BackwardConfig(gamma=0.5, beta=1e12, T=200)
    with pytest.raises(InstabilityError, match="beta"):
        invert_step(snap.positions[0] + 1e-4, snap, cfg, p)


def test_invert_reports_a_non_finite_gradient_as_divergence():
    # 1e-30 from a particle at eps = 0 the separation is not zero, but at
    # s = 13 q^(s/2) underflows to 0, so the first gradient is not finite
    snap = ParticleSet([[0.0, 0.0], [1.0, 0.0]])
    cfg = BackwardConfig(gamma=0.1, beta=0.1, T=5)
    # numpy warns of the underflow and the division by zero before the loop raises
    with np.errstate(all="ignore"), pytest.raises(InstabilityError,
                                                  match="^inner iterates diverged"):
        invert_step([1e-30, 0.0], snap, cfg, PotentialParams(13.0, 0.0), _warn=False)


def test_invert_from_a_snapshot_particle_at_zero_epsilon_raises():
    # at eps = 0 the pair with the coincident particle is singular, so the
    # first gradient raises before any step
    snap = random_set(10, 2, seed=9)
    cfg = BackwardConfig(gamma=0.1, beta=0.1, T=10)
    with pytest.raises(SingularityError, match="coincident points: zero separation"):
        invert_step(snap.positions[3], snap, cfg, PotentialParams(1.0, 0.0), _warn=False)


@pytest.mark.parametrize("d", [2, 3])
def test_mean_field_gradient_takes_exactly_d_floats(d):
    # a point of length 1 used to be broadcast against every coordinate
    snap = random_set(10, d, seed=9)
    p = PotentialParams(1.0, 1e-3)
    for length in (d - 1, d + 1):
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer)"):
            mean_field_gradient(np.full(length, 0.5), snap, p)
    # no finiteness check: a step into overflow must come back non-finite,
    # so that invert_step halves it
    x = np.full(d, 0.5)
    x[0] = np.nan
    assert not np.any(np.isfinite(mean_field_gradient(x, snap, p)))


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
        run_backward(traj.snapshots[-1].positions[2], traj, cfg)


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
            v = v - cfg.beta * np.array(_prox_gradient(v, mapped, snap, cfg, p))
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
        v = v - cfg.beta * np.array(_prox_gradient(v, y, snap, cfg, p))
    w, _res = invert_step(y, snap, cfg, p, _warn=False)
    np.testing.assert_array_equal(w, v)


def _numpy_invert_step(y, snap, cfg, p):
    # the inner loop written with numpy vectors and BLAS dots, the reference
    # for invert_step's Python-float loop; also returns the halvings and
    # whether the T cap stopped it
    work = _Workspace(snap, p)

    def grad(v):
        g = mean_field_gradient(v, snap, p, work)
        g *= -cfg.gamma
        g += v - y
        return g

    v = y.copy()
    g = grad(v)
    gg = float(g @ g)
    halvings = 0
    for t in range(cfg.T + 1):
        res = math.sqrt(gg)
        if res <= cfg.grad_tol or t == cfg.T:
            return v, res, halvings, res > cfg.grad_tol
        step = cfg.beta
        for _h in range(MAX_HALVINGS + 1):
            cand = v - step * g
            g_cand = grad(cand)
            if float(g @ g_cand) >= -(1.0 - DESCENT_C) * gg:
                break
            step *= 0.5
            halvings += 1
        v, g = cand, g_cand
        gg = float(g @ g)


PINNED_CASES = [(d, s, "grid") for d in (1, 2, 3, 5) for s in (0.0, 0.5, 1.0, 2.5)]


@pytest.mark.parametrize("d, s, case", PINNED_CASES + [(2, 1.0, "halved"), (2, 1.0, "capped")])
def test_invert_step_is_the_numpy_loop(d, s, case):
    # the point bit for bit; the residual within 1 ulp, since g . g is a
    # Python sum where the numpy loop took a BLAS dot
    snap = random_set(25, d, seed=0, scale=2.0)
    p = PotentialParams(s, 1e-3)
    # beta is no power of two, so step * g_k is rounded, not exact
    cfg = BackwardConfig(gamma=0.01, beta=0.3, T=5 if case == "capped" else 500)
    if case == "halved":
        # beta overshoots the curvature at a snapshot particle (see
        # test_invert_overshooting_beta_converges)
        starts = [augmented_forward_map(x, snap, cfg.gamma, p) for x in snap.positions[:5]]
    else:
        starts = list(SplitMix64(d).normals(3 * d).reshape(3, d) * 2.0)
    seen = []
    for y in starts:
        want, want_res, halvings, capped = _numpy_invert_step(y, snap, cfg, p)
        seen.append((halvings > 0, capped))
        v, res = invert_step(y, snap, cfg, p, _warn=False)
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (d,)
        assert type(res) is float
        assert v.tobytes() == want.tobytes()
        assert abs(res - want_res) <= math.ulp(want_res)
    # the two named cases do reach the branch they are named for
    if case == "halved":
        assert any(h for h, _c in seen)
    if case == "capped":
        assert all(c for _h, c in seen)


def test_invert_rejects_a_start_that_is_not_a_finite_vector_of_the_dimension():
    snap = random_set(10, 2, seed=9)
    p = PotentialParams(1.0, 1e-3)
    cfg = BackwardConfig(gamma=0.01, beta=0.1, T=10)
    traj = run_forward(snap, 0.01, 2, p)
    for start, message in [([float("nan"), 0.0], r"^start must be finite, got \[nan, 0.0\]"),
                           ([0.5], r"dimension 2, got shape \(1,\)"),
                           ([0.1, 0.2, 0.3], r"dimension 2, got shape \(3,\)"),
                           (0.5, r"dimension 2, got shape \(\)")]:
        with pytest.raises(ValueError, match=message):
            invert_step(start, snap, cfg, p)
        with pytest.raises(ValueError, match=message):
            run_backward(start, traj, cfg)
        # the forward map of one point and H take the same points
        with pytest.raises(ValueError, match=message):
            augmented_forward_map(start, snap, 0.1, p)
        with pytest.raises(ValueError, match=message):
            prox_objective(start, [0.1, 0.2], snap, cfg, p)
        with pytest.raises(ValueError, match=message):
            prox_objective([0.1, 0.2], start, snap, cfg, p)


# ---------------------------------------------------------------- run_backward

def test_backward_path_rejects_non_finite_points():
    with pytest.raises(ValueError, match="non-finite points"):
        BackwardPath(np.array([[0.0, 1.0], [np.nan, 1.0]]), np.array([0.0]))


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


def test_run_backward_inverts_with_the_trajectory_gamma(caplog):
    ps = random_set(8, 2, seed=13)
    p = PotentialParams(1.0, 0.05)
    traj = run_forward(ps, 0.005, 2, p)
    y = np.array([0.1, 0.1])
    with caplog.at_level(logging.DEBUG, logger="efs"):
        other = run_backward(y, traj, BackwardConfig(gamma=0.004, beta=0.5, T=50))
    assert caplog.records == []
    same = run_backward(y, traj, BackwardConfig(gamma=0.005, beta=0.5, T=50))
    np.testing.assert_array_equal(other.points, same.points)
    np.testing.assert_array_equal(other.inner_residuals, same.inner_residuals)


def test_run_backward_reports_capped_inversions_in_residuals(caplog):
    # T = 2 caps every inversion, and gamma = 0.005 is far above the
    # convexity guard here; run_backward logs neither
    ps = random_set(12, 2, seed=12)
    p = PotentialParams(1.0, 0.05)
    traj = run_forward(ps, 0.005, 4, p)
    capped = BackwardConfig(gamma=0.005, beta=0.5, T=2, grad_tol=1e-13)
    with caplog.at_level(logging.DEBUG, logger="efs"):
        path = run_backward(np.array([0.5, 0.5]), traj, capped)
    assert caplog.records == []
    assert int(np.sum(path.inner_residuals > capped.grad_tol)) == 4
    enough = BackwardConfig(gamma=0.005, beta=0.5, T=200)
    path = run_backward(np.array([0.5, 0.5]), traj, enough)
    assert int(np.sum(path.inner_residuals > enough.grad_tol)) == 0


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


@pytest.mark.parametrize("ps, p", [
    (gaussian_mixture(400, seed=0).points, PotentialParams(1.0, 1e-3)),
    (swiss_roll(500, noise=0.2, seed=0).points, PotentialParams(0.0, 1e-3)),
], ids=["reference_mixture", "reference_swiss_roll"])
def test_exact_mode_averages_over_all_n_particles(ps, p):
    # Exact mode's gradient is (1/n) sum_i grad W(v - x_i), the force an augmented
    # point feels, so it undoes augmented_forward_map.  At a training particle x_i
    # the self pair adds grad W(0) = 0, so n times it is (n - 1) times the forward
    # force, whose average skips the self pair: the O(gamma / n) offset per step.
    n = ps.n
    forward = (n - 1) * forward_gradient(ps, p)
    backward = np.array([n * mean_field_gradient(x, ps, p) for x in ps.positions])
    rel = np.linalg.norm(backward - forward, axis=1) / np.linalg.norm(forward, axis=1)
    assert rel.max() <= 1e-13
