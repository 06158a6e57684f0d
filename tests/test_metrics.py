import math

import numpy as np
import pytest

from efs import (
    BackwardConfig,
    ParticleSet,
    PotentialParams,
    energy_trace,
    forward,
    metrics,
    mmd_squared,
    nn_novelty,
    run_forward,
    uniformity_report,
)
from efs.metrics import ks_statistic, kuiper_statistic
from efs.potential import repulsion
from efs.rng import SplitMix64

from conftest import random_rotation


def random_set(n, d, seed=0, scale=1.0):
    return ParticleSet(SplitMix64(seed).normals(n * d).reshape(n, d) * scale)


def uniform_disk(n, seed=0, center=(0.0, 0.0), radius=1.0):
    rng = SplitMix64(seed)
    angles = 2.0 * np.pi * rng.uniforms(n)
    radii = radius * np.sqrt(rng.uniforms(n))
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return ParticleSet(pts + np.asarray(center))


# ---------------------------------------------------------------- MMD

def test_mmd_identical_multisets():
    a = random_set(30, 2, seed=1)
    assert abs(mmd_squared(a, a, PotentialParams(1.0, 0.1))) <= 1e-12


def test_mmd_singleton_hand_example():
    a = ParticleSet([[0.0, 0.0]])
    b = ParticleSet([[1.0, 0.0]])
    # 1/2 + 1/2 - 2/(2*2) = 0.5, exactly representable
    assert mmd_squared(a, b, PotentialParams(2.0, 1.0)) == 0.5


def test_mmd_symmetry_and_nonnegativity():
    p = PotentialParams(1.0, 0.05)
    for seed in range(20):
        a = random_set(15, 2, seed=2 * seed, scale=1.5)
        b = random_set(12, 2, seed=2 * seed + 1, scale=1.5)
        v = mmd_squared(a, b, p)
        assert v >= -1e-12
        assert mmd_squared(b, a, p) == pytest.approx(v, rel=1e-12)


def test_mmd_translation_invariance():
    p = PotentialParams(1.0, 0.05)
    a = random_set(20, 2, seed=5)
    b = random_set(20, 2, seed=6)
    base = mmd_squared(a, b, p)
    shift = np.array([7.0, -3.0])
    moved = mmd_squared(ParticleSet(a.positions + shift),
                        ParticleSet(b.positions + shift), p)
    assert moved == pytest.approx(base, abs=1e-10)


def test_mmd_discriminates_shifted_disk():
    p = PotentialParams(1.0, 0.05)
    a = uniform_disk(200, seed=1)
    b = uniform_disk(200, seed=2)
    shifted = ParticleSet(uniform_disk(200, seed=2).positions + np.array([1.5, 0.0]))
    assert mmd_squared(a, shifted, p) > mmd_squared(a, b, p)


def test_mmd_rejects_s_zero_and_dimension_mismatch():
    a = random_set(5, 2)
    with pytest.raises(ValueError):
        mmd_squared(a, a, PotentialParams(0.0, 0.1))
    with pytest.raises(ValueError):
        mmd_squared(a, random_set(5, 3), PotentialParams(1.0, 0.1))
    with pytest.raises(ValueError):
        mmd_squared(a, a, PotentialParams(1.0, 0.0))


def full_kernel_mean(a, b, p):
    """The (a x b x d) difference-tensor kernel mean, as a reference."""
    diff = a.positions[:, None, :] - b.positions[None, :, :]
    return float(repulsion(np.einsum("abd,abd->ab", diff, diff) + p.epsilon, p.s).mean())


@pytest.mark.parametrize("block_pairs", [forward._BLOCK_PAIRS, 1])
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_mmd_blocked_matches_full_matrix(monkeypatch, s, block_pairs):
    # 600 and 500 rows against up to 600 columns span many row blocks (one
    # row each with block_pairs=1)
    monkeypatch.setattr(forward, "_BLOCK_PAIRS", block_pairs)
    p = PotentialParams(s, 1e-3)
    for d in (1, 2, 3):
        a = random_set(600, d, seed=11)
        b = ParticleSet(random_set(500, d, seed=12, scale=1.5).positions + 0.5)
        kaa, kbb, kab = (full_kernel_mean(a, a, p), full_kernel_mean(b, b, p),
                         full_kernel_mean(a, b, p))
        for x, y, ref in ((a, a, kaa), (b, b, kbb), (a, b, kab)):
            got = metrics._kernel_mean(x.positions, y.positions, p.s, p.epsilon)
            assert got == pytest.approx(ref, rel=1e-15, abs=0)
        # the three terms' errors add, so bound the MMD by their total size
        assert mmd_squared(a, b, p) == pytest.approx(kaa + kbb - 2.0 * kab, rel=0,
                                                     abs=1e-15 * (kaa + kbb + 2.0 * kab))


# ---------------------------------------------------------------- KS / Kuiper

def test_ks_statistic_single_point():
    assert ks_statistic(np.array([0.5]), lambda u: u) == pytest.approx(0.5)


def test_ks_statistic_perfect_grid():
    # midpoints of n equal bins against the identity CDF: KS = 1/(2n)
    n = 100
    u = (np.arange(n) + 0.5) / n
    assert ks_statistic(u, lambda x: x) == pytest.approx(0.5 / n)


def test_kuiper_rotation_invariance():
    rng = SplitMix64(8)
    angles = 2.0 * np.pi * rng.uniforms(500)
    base = kuiper_statistic(angles)
    for shift in (0.3, 1.7, 4.0):
        assert kuiper_statistic(angles + shift) == pytest.approx(base, abs=1e-10)


def test_kuiper_single_ray_maximal():
    assert kuiper_statistic(np.full(100, 1.234)) >= 0.9


# ---------------------------------------------------------------- uniformity

def test_uniformity_calibrated_on_uniform_disk():
    report = uniformity_report(uniform_disk(5000, seed=3))
    assert report.radial_ks <= 0.03
    assert report.angular_ks <= 0.05
    assert 0.0 <= report.radial_ks <= 1.0


def test_uniformity_single_ray_angles():
    # all points on one ray; the mass is unbalanced so the angles about the
    # internal center overwhelmingly point one way
    pts = np.array([[1.0, 0.0]] * 95 + [[2.0, 0.0]] * 5)
    report = uniformity_report(ParticleSet(pts))
    assert report.angular_ks >= 0.9


def test_uniformity_rigid_motion_invariance():
    ps = uniform_disk(400, seed=4)
    base = uniformity_report(ps)
    rot = random_rotation(2, seed=5)
    moved = uniformity_report(
        ParticleSet(ps.positions @ rot.T + np.array([5.0, -2.0])))
    assert moved.radial_ks == pytest.approx(base.radial_ks, abs=1e-10)
    assert moved.angular_ks == pytest.approx(base.angular_ks, abs=1e-10)


def test_uniformity_needs_ten_points():
    with pytest.raises(ValueError):
        uniformity_report(random_set(9, 2))


def test_uniformity_high_dimension_has_no_angular():
    report = uniformity_report(random_set(100, 3, seed=6))
    assert report.angular_ks is None


# ---------------------------------------------------------------- novelty

def test_novelty_subset_has_zero_min():
    train = random_set(20, 2, seed=7)
    gen = ParticleSet(train.positions[:5])
    min_nn, mean_nn, self_nn = nn_novelty(gen, train)
    assert min_nn == 0.0
    assert mean_nn == 0.0
    assert self_nn > 0.0


def test_novelty_three_four_five():
    train = ParticleSet([[0.0, 0.0]])
    gen = ParticleSet([[3.0, 4.0]])
    min_nn, mean_nn, _ = nn_novelty(gen, train)
    assert min_nn == pytest.approx(5.0)
    assert mean_nn == pytest.approx(5.0)


def nn_reference(generated, training):
    """nn_novelty by plain pairwise loops, coordinates summed in order."""
    def nearest(x, points, skip):
        best = math.inf
        for j, y in enumerate(points):
            if j != skip:
                sq = 0.0
                for xk, yk in zip(x, y):
                    sq += (xk - yk) * (xk - yk)
                best = min(best, sq)
        return math.sqrt(best)

    train = training.positions.tolist()
    dist = np.array([nearest(x, train, None) for x in generated.positions.tolist()])
    self_dist = np.array([nearest(x, train, i) for i, x in enumerate(train)])
    return float(dist.min()), float(dist.mean()), float(self_dist.mean())


@pytest.mark.parametrize("block_pairs", [forward._BLOCK_PAIRS, 1])
@pytest.mark.parametrize("n_train", [1, 2, 300])
def test_novelty_matches_pairwise_loops(monkeypatch, block_pairs, n_train):
    # 300 training points span several row blocks (one row each with
    # block_pairs=1); rows 3, 5 and 7 coincide, so their own NN distance is 0
    monkeypatch.setattr(forward, "_BLOCK_PAIRS", block_pairs)
    for d in (1, 2, 3):
        train = random_set(n_train, d, seed=9).positions.copy()
        if n_train > 7:
            train[5] = train[7] = train[3]
        train = ParticleSet(train)
        gen = random_set(40, d, seed=10, scale=1.2)
        got = nn_novelty(gen, train)
        assert got == nn_reference(gen, train)
        if n_train == 1:
            assert got[2] == math.inf


def test_novelty_dimension_mismatch():
    with pytest.raises(ValueError):
        nn_novelty(random_set(5, 2), random_set(5, 3))


# ---------------------------------------------------------------- energy trace

def test_energy_trace_equilibrium_constant():
    ps = ParticleSet([[0.0, 0.0], [1.0, 0.0]])
    traj = run_forward(ps, 0.1, 5, PotentialParams(1.0, 0.0))
    trace = energy_trace(traj)
    assert len(trace) == 6
    np.testing.assert_allclose(trace, trace[0], rtol=1e-12)


def test_energy_trace_gamma_zero_constant():
    ps = random_set(10, 2, seed=8)
    traj = run_forward(ps, 0.0, 4, PotentialParams(1.0, 0.01))
    trace = energy_trace(traj)
    assert len(trace) == 5
    assert all(e == trace[0] for e in trace)
