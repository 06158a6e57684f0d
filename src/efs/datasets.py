"""Seeded synthetic datasets: a Gaussian mixture and a Swiss roll.

All generators are pure functions of (parameters, seed); Gaussian draws use
Box-Muller on the package RNG so outputs are identical across platforms.
Point files are read and written by :mod:`efs.persist`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import check_bound
from .forward import ParticleSet
from .rng import SplitMix64

DEFAULT_MIXTURE_MEANS = ((2.0, 2.0), (-2.0, 2.0), (-2.0, -2.0), (2.0, -2.0))
DEFAULT_MIXTURE_STD = 0.3

SWISS_THETA_LO = 1.5 * math.pi
SWISS_THETA_HI = 4.5 * math.pi


@dataclass(frozen=True)
class LabeledPoints:
    """A particle set plus optional integer component labels."""

    points: ParticleSet
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int32)
            if labels.shape != (self.points.n,):
                raise ValueError(
                    f"labels shape {labels.shape} does not match n={self.points.n}")
            object.__setattr__(self, "labels", labels)


def gaussian_mixture(n: int, means=None, stds=None, weights=None,
                     seed: int = 0) -> LabeledPoints:
    """n i.i.d. draws from an isotropic Gaussian mixture, with labels.

    Defaults to four components at (+-2, +-2) with std 0.3 and equal
    weights; one std given as a number applies to every component.
    Consumes n component uniforms first, then n*d normals.
    """
    check_bound("n", n, 1)
    if means is None:
        means = DEFAULT_MIXTURE_MEANS
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    ncomp, d = means.shape
    if ncomp == 0:
        raise ValueError("mixture needs at least one component")
    stds = np.asarray(DEFAULT_MIXTURE_STD if stds is None else stds, dtype=np.float64)
    if stds.ndim == 0:
        stds = np.full(ncomp, stds)
    if weights is None:
        weights = [1.0 / ncomp] * ncomp
    weights = np.asarray(weights, dtype=np.float64)
    if stds.shape != (ncomp,) or weights.shape != (ncomp,):
        raise ValueError("means, stds and weights must have equal length")
    if not np.all(np.isfinite(stds) & (stds >= 0)):
        raise ValueError(f"stds must be finite and >= 0, got {stds.tolist()}")
    # NaN fails both comparisons, so finiteness is checked first
    if not np.all(np.isfinite(weights) & (weights >= 0)) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must be finite, >= 0 and sum to 1, got {weights.tolist()}")
    rng = SplitMix64(seed)
    u = rng.uniforms(n)
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # close the last bin against rounding
    labels = np.searchsorted(cum, u, side="left").astype(np.int32)
    normals = rng.normals(n * d).reshape(n, d)
    points = means[labels] + stds[labels, None] * normals
    return LabeledPoints(points=ParticleSet(points), labels=labels)


def swiss_roll(n: int, noise: float = 0.2, seed: int = 0) -> LabeledPoints:
    """2-d Swiss roll: theta ~ U[1.5pi, 4.5pi], point = theta*(cos, sin)/3 + noise.

    Labels bucket theta into quartiles for coloring.  Consumes n theta
    uniforms first, then 2n normals.
    """
    check_bound("n", n, 1)
    check_bound("noise", noise, 0, finite=True)
    rng = SplitMix64(seed)
    theta = SWISS_THETA_LO + (SWISS_THETA_HI - SWISS_THETA_LO) * rng.uniforms(n)
    base = np.stack([theta * np.cos(theta), theta * np.sin(theta)], axis=1) / 3.0
    pts = base + noise * rng.normals(2 * n).reshape(n, 2)
    frac = (theta - SWISS_THETA_LO) / (SWISS_THETA_HI - SWISS_THETA_LO)
    labels = np.minimum((frac * 4).astype(np.int32), 3)
    return LabeledPoints(points=ParticleSet(pts), labels=labels)
