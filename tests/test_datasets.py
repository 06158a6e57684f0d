import numpy as np
import pytest

from efs import LabeledPoints, ParticleSet, gaussian_mixture, save_points, swiss_roll
from efs.datasets import SWISS_THETA_HI, SWISS_THETA_LO


# ---------------------------------------------------------------- mixture

def test_mixture_single_component_zero_std():
    lp = gaussian_mixture(10, means=[(1.0, -2.0)], stds=[0.0], weights=[1.0], seed=3)
    np.testing.assert_array_equal(lp.points.positions, np.tile([1.0, -2.0], (10, 1)))
    np.testing.assert_array_equal(lp.labels, np.zeros(10, dtype=np.int32))


def test_mixture_one_std_applies_to_every_component(tmp_path):
    a, b = tmp_path / "a.efsb", tmp_path / "b.efsb"
    save_points(gaussian_mixture(50, stds=0.5, seed=3), a)
    save_points(gaussian_mixture(50, stds=[0.5] * 4, seed=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_mixture_degenerate_weights():
    lp = gaussian_mixture(50, means=[(0.0, 0.0), (5.0, 5.0)], stds=[1.0, 1.0],
                          weights=[1.0, 0.0], seed=1)
    assert np.all(lp.labels == 0)


def test_mixture_component_balance():
    lp = gaussian_mixture(40000, seed=0)
    counts = np.bincount(lp.labels, minlength=4)
    assert counts.sum() == 40000
    np.testing.assert_allclose(counts, 10000, atol=0.03 * 10000)


def test_mixture_labels_match_clusters():
    lp = gaussian_mixture(400, seed=7)
    means = np.array([(2, 2), (-2, 2), (-2, -2), (2, -2)], dtype=float)
    for point, label in zip(lp.points.positions, lp.labels):
        assert np.linalg.norm(point - means[label]) < 2.0  # well within its mode


def test_mixture_determinism():
    a = gaussian_mixture(200, seed=11)
    b = gaussian_mixture(200, seed=11)
    np.testing.assert_array_equal(a.points.positions, b.points.positions)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = gaussian_mixture(200, seed=12)
    assert not np.array_equal(a.points.positions, c.points.positions)


def test_mixture_validation():
    with pytest.raises(ValueError):
        gaussian_mixture(10, means=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        gaussian_mixture(10, means=[(0, 0)], stds=[-1.0], weights=[1.0])
    with pytest.raises(ValueError):
        gaussian_mixture(10, means=[(0, 0)], stds=[1.0], weights=[0.5])
    with pytest.raises(ValueError):
        gaussian_mixture(10, means=[(0, 0), (1, 1)], stds=[1.0], weights=[0.5, 0.5])


# ---------------------------------------------------------------- swiss roll

def test_swiss_noiseless_norm_is_theta_over_three():
    lp = swiss_roll(300, noise=0.0, seed=2)
    norms = np.linalg.norm(lp.points.positions, axis=1)
    theta = norms * 3.0
    assert np.all(theta >= SWISS_THETA_LO - 1e-9)
    assert np.all(theta <= SWISS_THETA_HI + 1e-9)


def test_swiss_noiseless_inside_disk():
    lp = swiss_roll(500, noise=0.0, seed=3)
    norms = np.linalg.norm(lp.points.positions, axis=1)
    assert np.all(norms <= SWISS_THETA_HI / 3.0 + 1e-9)


def test_swiss_labels_are_theta_quartiles():
    lp = swiss_roll(400, noise=0.0, seed=4)
    assert set(np.unique(lp.labels)) <= {0, 1, 2, 3}
    theta = np.linalg.norm(lp.points.positions, axis=1) * 3.0
    frac = (theta - SWISS_THETA_LO) / (SWISS_THETA_HI - SWISS_THETA_LO)
    np.testing.assert_array_equal(lp.labels, np.minimum((frac * 4).astype(int), 3))


def test_swiss_determinism():
    a = swiss_roll(500, noise=0.2, seed=5)
    b = swiss_roll(500, noise=0.2, seed=5)
    np.testing.assert_array_equal(a.points.positions, b.points.positions)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_swiss_noise_validation():
    with pytest.raises(ValueError):
        swiss_roll(10, noise=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_generators_reject_non_finite_spread(value):
    with pytest.raises(ValueError, match="^stds must be finite and >= 0"):
        gaussian_mixture(10, means=[(0, 0), (1, 1)], stds=[0.3, value], weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="^stds must be finite and >= 0"):
        gaussian_mixture(10, stds=value)
    with pytest.raises(ValueError, match=f"^noise must be finite and >= 0, got {value}$"):
        swiss_roll(10, noise=value)


@pytest.mark.parametrize("make", [gaussian_mixture, swiss_roll])
@pytest.mark.parametrize("n", [0, -3])
def test_generators_reject_counts_below_one(make, n):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        make(n)


# ---------------------------------------------------------------- labeled points

def test_labeled_points_validation():
    ps = ParticleSet([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        LabeledPoints(points=ps, labels=[1, 2, 3])
