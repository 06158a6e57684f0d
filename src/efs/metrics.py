"""Evaluation metrics: Riesz-kernel MMD, uniformity tests, novelty statistics.

The metrics judge point sets; a forward run's energies, their trace and the
verdict on them belong to :mod:`efs.forward`.

The MMD and the nearest-neighbor distances read the squared distances
between two point sets from the forward pass's pair-block generator,
:func:`efs.forward.pair_blocks`, so their memory is one block's whatever the
sizes of the sets.

The MMD uses the regularized inverse-power kernel
``K(z) = 1 / (s * (||z||^2 + eps)^(s/2))``, the repulsive part of the pair
potential (:func:`efs.potential.repulsion`), as a V-statistic with diagonals
included.  For s > 0 and eps > 0 this is an inverse multiquadric, strictly
positive definite, so the statistic is nonnegative and vanishes only on
identical multisets.

Uniformity on a ball is tested with a one-sample KS statistic on scaled
distances (reference CDF ``F(u) = u^d`` on [0, 1], with the scale set to the
maximum distance so the support matches), plus, in two dimensions, a
rotation-invariant Kuiper statistic on angles about the center.  The uniform
ball is the forward pass's limit law only for s = d - 2; for d - 2 < s < d
the limit is the non-uniform profile proportional to
(R^2 - |x|^2)^((s - d + 2) / 2), so there the statistics measure the
distance from uniformity, not from the limit law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forward import ParticleSet, pair_blocks
from .pipeline import Enclosure, estimate_enclosure
from .potential import PotentialParams, repulsion


@dataclass(frozen=True)
class UniformityReport:
    """KS-style statistics (in [0, 1]) of the uniform-ball fit."""

    radial_ks: float
    angular_ks: Optional[float]
    enclosure: Enclosure


def _kernel_mean(a: np.ndarray, b: np.ndarray, s: float, eps: float) -> float:
    # fsum adds the block sums exactly rounded, so the block count adds no error.
    # The kernel is computed in place in the block's buffer: a fresh array per
    # block lets malloc hand heap pages back and fault them in again.
    sums = [float(repulsion(np.add(sq, eps, out=sq), s, out=sq).sum())
            for *_, sq in pair_blocks(a, b)]
    return math.fsum(sums) / (a.shape[0] * b.shape[0])


def check_mmd_params(p: PotentialParams) -> None:
    """The MMD kernel needs s > 0 and epsilon > 0."""
    if p.s <= 0:
        raise ValueError("the MMD kernel requires s > 0")
    if p.epsilon <= 0:
        raise ValueError("the regularized MMD requires epsilon > 0")


def mmd_squared(a: ParticleSet, b: ParticleSet, p: PotentialParams) -> float:
    """Squared MMD between two point sets under the repulsion kernel.

    Symmetric, translation invariant, zero on identical multisets,
    nonnegative up to roundoff.
    """
    check_mmd_params(p)
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return (_kernel_mean(a.positions, a.positions, p.s, p.epsilon)
            + _kernel_mean(b.positions, b.positions, p.s, p.epsilon)
            - 2.0 * _kernel_mean(a.positions, b.positions, p.s, p.epsilon))


def _ecdf_gaps(f: np.ndarray):
    """(D+, D-) of an ECDF against the sorted reference CDF values ``f``."""
    n = f.size
    return (float(np.max(np.arange(1, n + 1) / n - f)),
            float(np.max(f - np.arange(0, n) / n)))


def ks_statistic(u: np.ndarray, cdf) -> float:
    """One-sample KS distance of samples ``u`` to the distribution ``cdf``."""
    u = np.sort(np.asarray(u, dtype=np.float64))
    return max(*_ecdf_gaps(cdf(u)), 0.0)


def kuiper_statistic(angles: np.ndarray) -> float:
    """Kuiper statistic of angles against the uniform circular law.

    D+ + D- of the wrapped empirical CDF; invariant under rotation and in
    [0, 1].
    """
    d_plus, d_minus = _ecdf_gaps(np.sort(np.mod(angles, 2.0 * np.pi) / (2.0 * np.pi)))
    return max(d_plus, 0.0) + max(d_minus, 0.0)


def uniformity_report(ps: ParticleSet) -> UniformityReport:
    """Empirical test of uniformity on a ball (the limit law for s = d - 2).

    Radial: KS of (distance to center) / (max distance) against F(u) = u^d.
    Angular (d = 2 only): Kuiper statistic of angles about the center.
    """
    if ps.n < 10:
        raise ValueError(f"need at least 10 points, got {ps.n}")
    enc = estimate_enclosure(ps)
    rel = ps.positions - enc.center
    dist = np.linalg.norm(rel, axis=1)
    rmax = float(dist.max())
    radial = ks_statistic(dist / rmax, lambda u: u**ps.d)
    angular = None
    if ps.d == 2:
        angular = kuiper_statistic(np.arctan2(rel[:, 1], rel[:, 0]))
    return UniformityReport(radial_ks=radial, angular_ks=angular, enclosure=enc)


def _nn_distances(a: np.ndarray, b: np.ndarray, skip_self: bool) -> np.ndarray:
    """Distance from each row of ``a`` to its nearest row of ``b``.

    With ``skip_self`` (``a`` is ``b``) a row's own pair is left out, so a
    duplicated point is at distance 0 and the point of a one-point set at inf.
    """
    out = np.empty(a.shape[0])
    for i0, i1, _t, sq in pair_blocks(a, b):
        if skip_self:
            i = np.arange(i0, i1)
            sq[i - i0, i] = np.inf
        out[i0:i1] = sq.min(axis=1)
    return np.sqrt(out)


def nn_novelty(generated: ParticleSet, training: ParticleSet):
    """Nearest-neighbor novelty of generated points against the training set.

    Returns ``(min_nn, mean_nn, self_nn_mean)`` where the last entry is the
    training set's own mean nearest-neighbor distance, for normalization.
    """
    if generated.d != training.d:
        raise ValueError(f"dimension mismatch: {generated.d} vs {training.d}")
    dist = _nn_distances(generated.positions, training.positions, skip_self=False)
    self_dist = _nn_distances(training.positions, training.positions, skip_self=True)
    return float(dist.min()), float(dist.mean()), float(self_dist.mean())

