"""Interaction energy and the forward gradient-descent transport.

Particles interact through the pair potential of :mod:`efs.potential`.  The
per-particle force is

    Delta_i = (1 / (n - 1)) * sum_{a != i} grad W(x_i - x_a)

and one forward step moves every particle simultaneously (Jacobi update)
from the old snapshot: ``x_i <- x_i - gamma * Delta_i``.  Pairwise work is
done in blocks of rows, with one 2-D difference block per coordinate.  A
block holds about ``_BLOCK_PAIRS`` pairs, so each of its float64 arrays is at
most 128 KB and stays in a core's L2 cache.  Each row's inner sum is a fixed-order numpy reduction over the full
index range, so forces are independent of block size.

The energy E_n is computed from the same pair blocks as the forces:
:func:`forward_gradient` also sums the pair values and caches E_n on the
particle set, per :class:`PotentialParams`, so :func:`interaction_energy` of a
set that has already taken a forward step builds no pair blocks again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError
from .potential import PotentialParams, gradient_coef, pair_value

logger = logging.getLogger(__name__)

# Pairs per block.  A block has max(1, _BLOCK_PAIRS // n) rows, so each of its
# (rows, n) float64 arrays is at most 128 KB, which a core's L2 cache holds.
_BLOCK_PAIRS = 16384


@dataclass(frozen=True)
class ParticleSet:
    """n points in R^d, the support of the empirical measure.

    ``positions`` is an n x d float64 matrix; row i is particle x_i.  The
    array is frozen (read-only) so sets can be shared across threads.

    ``_energy`` caches E_n per :class:`PotentialParams`.  It is filled by
    :func:`forward_gradient` and read by :func:`interaction_energy`; E_n is a
    pure function of the read-only positions and the params, so a cached
    value never goes stale.
    """

    positions: np.ndarray
    _energy: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64, copy=True)
        if pos.ndim != 2:
            raise ValueError(f"positions must be 2-d, got shape {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("need at least 1 particle")
        if pos.shape[1] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain non-finite values")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """Ordered forward snapshots x^(0) ... x^(k) plus the run configuration."""

    snapshots: tuple
    gamma: float
    params: PotentialParams

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if not snaps:
            raise ValueError("trajectory needs at least one snapshot")
        n, d = snaps[0].n, snaps[0].d
        for j, s in enumerate(snaps):
            if (s.n, s.d) != (n, d):
                raise ValueError(f"snapshot {j} has shape {(s.n, s.d)}, expected {(n, d)}")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def k(self) -> int:
        return len(self.snapshots) - 1

    @property
    def n(self) -> int:
        return self.snapshots[0].n

    @property
    def d(self) -> int:
        return self.snapshots[0].d


def _pair_blocks(x: np.ndarray, eps: float):
    """Yield (row slice, self-pair index, coordinate differences, squared distances, q).

    The coordinate differences are d blocks ``t[k] = x[i0:i1, k, None] -
    x[None, :, k]``, each of shape (rows, n), with rows = ``_BLOCK_PAIRS //
    n`` (at least 1).  ``q`` is the regularized squared distance with its
    self-pair entries set to 1, so the potential and its coefficient are
    finite there; callers zero what the self-pair must not contribute.
    Coincident distinct pairs with eps=0 raise.
    """
    n = x.shape[0]
    cols = np.ascontiguousarray(x.T)
    step = max(1, _BLOCK_PAIRS // n)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        t = [c[i0:i1, None] - c[None, :] for c in cols]
        sq = t[0] * t[0]
        for tk in t[1:]:
            sq += tk * tk
        rows = np.arange(i0, i1)
        diag = (rows - i0, rows)
        q = sq + eps
        q[diag] = 1.0
        if eps == 0.0 and np.any(q == 0.0):
            raise SingularityError("coincident particles with epsilon=0")
        yield i0, i1, diag, t, sq, q


def interaction_energy(ps: ParticleSet, p: PotentialParams) -> float:
    """Average pair energy over all ordered distinct pairs (the objective E_n).

    Returns the value cached by :func:`forward_gradient` when there is one.
    """
    x = ps.positions
    n = ps.n
    if n < 2:
        raise ValueError("interaction energy needs at least 2 particles")
    if p in ps._energy:
        return ps._energy[p]
    total = 0.0
    for _i0, _i1, diag, _t, sq, q in _pair_blocks(x, p.epsilon):
        w = pair_value(sq, q, p.s)
        w[diag] = 0.0
        total += float(w.sum())
    return total / (n * (n - 1))


def forward_gradient(ps: ParticleSet, p: PotentialParams) -> np.ndarray:
    """Per-particle forces; row i is Delta_i.  Columns sum to zero.

    Also caches E_n on ``ps`` (see :class:`ParticleSet`), summed from the
    same blocks in the same order as :func:`interaction_energy`.
    """
    x = ps.positions
    n = ps.n
    if n < 2:
        raise ValueError("forces need at least 2 particles")
    out = np.empty_like(x)
    total = 0.0
    for i0, i1, diag, t, sq, q in _pair_blocks(x, p.epsilon):
        # q = 1 on the self-pair makes its coefficient 0, and t is 0 there
        coef = gradient_coef(q, p.s)
        for k, tk in enumerate(t):
            out[i0:i1, k] = np.einsum("ab,ab->a", coef, tk)
        w = pair_value(sq, q, p.s)
        w[diag] = 0.0
        total += float(w.sum())
    ps._energy[p] = total / (n * (n - 1))
    out /= n - 1
    return out


def forward_step(ps: ParticleSet, gamma: float, p: PotentialParams) -> ParticleSet:
    """One simultaneous gradient step; preserves the center of mass."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    delta = forward_gradient(ps, p)
    return ParticleSet(ps.positions - gamma * delta)


def run_forward(ps0: ParticleSet, gamma: float, k: int, p: PotentialParams) -> Trajectory:
    """Run k forward steps, recording every snapshot (k + 1 in total).

    Logs a warning when ``p.s`` lies outside [d - 2, d), where the
    uniform-limit theory does not apply.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = ps0.d
    if not d - 2 <= p.s < d:
        logger.warning("s=%g is outside [d-2, d)=[%d, %d) where the uniform-limit theory "
                       "applies", p.s, d - 2, d)
    snaps = [ps0]
    for j in range(k):
        try:
            snaps.append(forward_step(snaps[-1], gamma, p))
        except SingularityError as e:
            raise SingularityError(f"forward iteration {j}: {e}") from e
    return Trajectory(tuple(snaps), gamma=float(gamma), params=p)
