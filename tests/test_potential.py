import numpy as np
import pytest

from efs import (
    BackwardConfig,
    ParticleSet,
    PotentialParams,
    SingularityError,
    forward_gradient,
    interaction_energy,
    pair_hessian_spectral_bound,
    potential_gradient,
    potential_value,
    prox_objective,
)
from efs.backward import mean_field_gradient
from efs.rng import SplitMix64

from conftest import fd_gradient, fd_hessian, random_rotation


# ---------------------------------------------------------------- params

def test_params_validation():
    PotentialParams(0.0, 0.0)  # boundary values are legal
    with pytest.raises(ValueError):
        PotentialParams(-1.0, 0.1)
    with pytest.raises(ValueError):
        PotentialParams(1.0, -0.1)
    with pytest.raises(ValueError):
        PotentialParams(float("nan"), 0.1)


# ---------------------------------------------------------------- value

def test_value_unit_separation_s2():
    # ||z|| = 1, s = 2, eps = 0: 1/2 + 1/2
    assert potential_value([1.0, 0.0], PotentialParams(2.0, 0.0)) == pytest.approx(1.0)
    assert potential_value([0.6, 0.8], PotentialParams(2.0, 0.0)) == pytest.approx(1.0)


def test_value_hand_example_s1():
    # ||z|| = 2, s = 1, eps = 0: 2 + 1/2
    assert potential_value([2.0, 0.0], PotentialParams(1.0, 0.0)) == pytest.approx(2.5)


def test_value_log_branch_unit():
    # s = 0, ||z|| = 1: log 1 = 0
    assert potential_value([1.0, 0.0], PotentialParams(0.0, 0.0)) == pytest.approx(0.5)


def test_value_radial():
    p = PotentialParams(1.5, 0.01)
    rot = random_rotation(3, seed=11)
    z = np.array([0.3, -1.2, 0.7])
    assert potential_value(rot @ z, p) == pytest.approx(potential_value(z, p), rel=1e-12)


def test_value_singularity():
    with pytest.raises(SingularityError):
        potential_value([0.0, 0.0], PotentialParams(1.0, 0.0))
    with pytest.raises(SingularityError):
        potential_value([0.0, 0.0], PotentialParams(0.0, 0.0))


def test_value_rejects_nonfinite():
    with pytest.raises(ValueError):
        potential_value([np.inf, 0.0], PotentialParams(1.0, 0.1))


# ---------------------------------------------------------------- gradient

def test_gradient_pair_equilibrium():
    for s in (0.0, 1.0, 2.0, 7.0):
        g = potential_gradient([1.0, 0.0], PotentialParams(s, 0.0))
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-15)


def test_gradient_at_origin_regularized():
    g = potential_gradient([0.0, 0.0, 0.0], PotentialParams(3.0, 0.5))
    np.testing.assert_array_equal(g, [0.0, 0.0, 0.0])


def test_gradient_hand_example():
    # 2 * (1 - 4^(-3/2)) = 2 * (1 - 1/8)
    g = potential_gradient([2.0, 0.0], PotentialParams(1.0, 0.0))
    np.testing.assert_allclose(g, [1.75, 0.0], rtol=1e-15)


def test_gradient_oddness_exact():
    p = PotentialParams(2.0, 0.01)
    rng = SplitMix64(5)
    for _ in range(20):
        z = rng.normals(3)
        np.testing.assert_array_equal(potential_gradient(-z, p), -potential_gradient(z, p))


def test_gradient_rotation_equivariance():
    p = PotentialParams(1.0, 0.05)
    rot = random_rotation(4, seed=3)
    z = np.array([0.2, -0.4, 1.1, 0.05])
    np.testing.assert_allclose(
        potential_gradient(rot @ z, p), rot @ potential_gradient(z, p), atol=1e-12)


def test_gradient_finite_difference_sweep():
    # 1e-6 relative agreement over the module's stated sweep
    rng = SplitMix64(42)
    for s in (0.0, 1.0, 2.0, 13.0):
        for eps in (1e-3, 1.0):
            p = PotentialParams(s, eps)
            for _ in range(100):
                direction = rng.normals(2)
                direction /= np.linalg.norm(direction)
                z = direction * (0.1 + 9.9 * rng.uniform())
                g = potential_gradient(z, p)
                g_fd = fd_gradient(lambda v: potential_value(v, p), z,
                                   h=1e-7 * max(1.0, np.linalg.norm(z)))
                np.testing.assert_allclose(g_fd, g, rtol=1e-6,
                                           atol=1e-6 * np.linalg.norm(g))


def test_gradient_s_to_zero_continuity():
    rng = SplitMix64(9)
    for _ in range(20):
        z = rng.normals(2) * 2.0
        g0 = potential_gradient(z, PotentialParams(0.0, 0.01))
        g1 = potential_gradient(z, PotentialParams(1e-9, 0.01))
        np.testing.assert_allclose(g1, g0, atol=1e-6)


# ---------------------------------------------------------------- curvature bounds

def test_hessian_bound_examples():
    assert pair_hessian_spectral_bound(PotentialParams(0.0, 1.0)) == pytest.approx(4.0)
    assert pair_hessian_spectral_bound(PotentialParams(2.0, 1.0)) == pytest.approx(6.0)
    assert pair_hessian_spectral_bound(PotentialParams(1.0, 0.001)) == pytest.approx(
        126492.1, rel=1e-6)


def test_hessian_bound_requires_epsilon():
    with pytest.raises(SingularityError):
        pair_hessian_spectral_bound(PotentialParams(1.0, 0.0))


def test_fd_hessian_below_bound():
    rng = SplitMix64(77)
    for s, eps in ((0.0, 0.5), (1.0, 0.1), (2.0, 1.0)):
        p = PotentialParams(s, eps)
        bound = pair_hessian_spectral_bound(p)
        for _ in range(100):
            z = rng.normals(2) * (0.01 + 3.0 * rng.uniform())
            H = fd_hessian(lambda v: potential_value(v, p), z)
            assert np.linalg.norm(H, ord=2) <= bound * (1.0 + 1e-5)


# ---------------------------------------------------------------- array sites

@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
def test_array_sites_match_pairwise_loop(s):
    # n=140 spans more than one block of efs.forward, so several blocks and
    # their diagonals are covered; every array site must equal the scalar W summed
    # with its own normalization
    p = PotentialParams(s, 1e-2)
    x = SplitMix64(11).normals(140 * 2).reshape(140, 2)
    n = x.shape[0]
    ps = ParticleSet(x)
    energy = 0.0
    forces = np.zeros_like(x)
    for i in range(n):
        for a in range(n):
            if a != i:
                energy += potential_value(x[i] - x[a], p)
                forces[i] += potential_gradient(x[i] - x[a], p)
    assert interaction_energy(ps, p) == pytest.approx(energy / (n * (n - 1)), rel=1e-12)
    np.testing.assert_allclose(forward_gradient(ps, p), forces / (n - 1),
                               rtol=1e-11, atol=1e-13)
    cfg = BackwardConfig(gamma=0.1, beta=0.1, T=10)
    for v in SplitMix64(12).normals(3 * 2).reshape(3, 2):
        mean = sum(potential_gradient(v - xa, p) for xa in x) / n
        np.testing.assert_allclose(mean_field_gradient(v, ps, p), mean,
                                   rtol=1e-12, atol=1e-14)
        # anchored at v, H(v) is -gamma times the mean of W
        mean_w = sum(potential_value(v - xa, p) for xa in x) / n
        assert prox_objective(v, v, ps, cfg, p) == pytest.approx(-cfg.gamma * mean_w,
                                                                 rel=1e-12)
