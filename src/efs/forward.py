"""Interaction energy and the forward gradient-descent transport.

Particles interact through the pair potential of :mod:`efs.potential`.  The
per-particle force is

    Delta_i = (1 / (n - 1)) * sum_{a != i} grad W(x_i - x_a)

and one forward step moves every particle simultaneously (Jacobi update)
from the old snapshot: ``x_i <- x_i - gamma * Delta_i``.

The all-pairs blocks of the forward pass and of :mod:`efs.metrics` come from
one generator, :func:`pair_blocks`.  It yields blocks of rows with one 2-D
difference block per coordinate.  A block holds about ``_BLOCK_PAIRS`` pairs,
so each of its float64 arrays is at most 128 KB and stays in a core's L2
cache.  Each row's inner sum is a fixed-order numpy reduction over the full
index range, so forces are independent of block size.

The energy E_n is computed from the same pair blocks as the forces:
:func:`forward_gradient` also sums the pair values and caches E_n on the
particle set, per :class:`PotentialParams`, so :func:`interaction_energy` of a
set that has already taken a forward step builds no pair blocks again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

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

    Two sets are equal when their positions are.  The set carries two caches
    that show in neither ``repr`` nor equality.  Each is a pure function of
    the read-only positions (and of the params), so a cached value never goes
    stale:

    - ``_energy`` caches E_n per :class:`PotentialParams`.  It is filled by
      :func:`forward_gradient` and :func:`interaction_energy` and read by the
      latter.
    - ``columns`` is the read-only (d, n) C-contiguous transpose of the
      positions, built on first access.  :mod:`efs.backward` reads it for
      every inner gradient against this snapshot.
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

    def __eq__(self, other):
        if not isinstance(other, ParticleSet):
            return NotImplemented
        return np.array_equal(self.positions, other.positions)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """Coordinate k of every particle in row k: a (d, n) read-only array."""
        cols = np.ascontiguousarray(self.positions.T)
        cols.setflags(write=False)
        return cols


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


def pair_blocks(a: np.ndarray, b: np.ndarray):
    """Yield (i0, i1, t, sq) for rows ``i0:i1`` of ``a`` against all of ``b``.

    ``t`` holds one difference block ``t[k] = a[i0:i1, k, None] - b[None, :,
    k]`` of shape (rows, len(b)) per coordinate k, with rows =
    ``_BLOCK_PAIRS // len(b)`` (at least 1), and ``sq`` sums their squares in
    coordinate order 0..d-1.  The next block overwrites ``t``, so a caller is
    done with a block's differences when it asks for the next.
    """
    cols = np.ascontiguousarray(b.T)
    step = max(1, _BLOCK_PAIRS // b.shape[0])
    # The difference blocks reuse one array per coordinate.  Fresh arrays per
    # block let malloc hand heap pages back and fault them in again, which
    # made the MMD ~50 % slower.
    bufs = [np.empty((min(step, a.shape[0]), b.shape[0])) for _ in cols]
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        t = [buf[:i1 - i0] for buf in bufs]
        for k, c in enumerate(cols):
            np.subtract(a[i0:i1, k, None], c, out=t[k])
        sq = t[0] * t[0]
        for tk in t[1:]:
            sq += tk * tk
        yield i0, i1, t, sq


def _self_pair_pass(ps: ParticleSet, p: PotentialParams, forces=None) -> float:
    """E_n of ``ps`` from the blocks of ``pair_blocks(x, x)``, cached on ``ps``.

    With ``forces``, each block's rows of the unnormalized forces are written
    there before its energy is summed.  ``q`` is the regularized squared
    distance with its self-pair entries set to 1, so the potential and its
    coefficient are finite there.  Coincident distinct pairs with eps=0 raise.
    """
    x = ps.positions
    total = 0.0
    for i0, i1, t, sq in pair_blocks(x, x):
        rows = np.arange(i0, i1)
        diag = (rows - i0, rows)
        q = sq + p.epsilon
        q[diag] = 1.0
        if p.epsilon == 0.0 and np.any(q == 0.0):
            raise SingularityError("coincident particles with epsilon=0")
        if forces is not None:
            # q = 1 on the self-pair makes its coefficient 0, and t is 0 there
            coef = gradient_coef(q, p.s)
            for k, tk in enumerate(t):
                forces[i0:i1, k] = np.einsum("ab,ab->a", coef, tk)
        w = pair_value(sq, q, p.s)
        w[diag] = 0.0
        total += float(w.sum())
    ps._energy[p] = total / (ps.n * (ps.n - 1))
    return ps._energy[p]


def interaction_energy(ps: ParticleSet, p: PotentialParams) -> float:
    """Average pair energy over all ordered distinct pairs (the objective E_n).

    Returns the cached value when there is one.
    """
    if ps.n < 2:
        raise ValueError("interaction energy needs at least 2 particles")
    if p in ps._energy:
        return ps._energy[p]
    return _self_pair_pass(ps, p)


def forward_gradient(ps: ParticleSet, p: PotentialParams) -> np.ndarray:
    """Per-particle forces; row i is Delta_i.  Columns sum to zero.

    Also caches E_n on ``ps`` (see :class:`ParticleSet`), summed from the
    same blocks in the same order as :func:`interaction_energy`.
    """
    if ps.n < 2:
        raise ValueError("forces need at least 2 particles")
    out = np.empty_like(ps.positions)
    _self_pair_pass(ps, p, out)
    out /= ps.n - 1
    return out


def forward_step(ps: ParticleSet, gamma: float, p: PotentialParams) -> ParticleSet:
    """One simultaneous gradient step; preserves the center of mass."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    delta = forward_gradient(ps, p)
    return ParticleSet(ps.positions - gamma * delta)


def run_forward(ps0: ParticleSet, gamma: float, k: int, p: PotentialParams) -> Trajectory:
    """Run k forward steps, recording every snapshot (k + 1 in total).

    Logs a warning when ``p.s`` lies outside [d - 2, d), where the cited
    limit-law theory (see :mod:`efs`) does not apply.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = ps0.d
    if not d - 2 <= p.s < d:
        logger.warning("s=%g is outside [d-2, d)=[%d, %d) where the cited limit-law theory "
                       "applies", p.s, d - 2, d)
    snaps = [ps0]
    for j in range(k):
        try:
            snaps.append(forward_step(snaps[-1], gamma, p))
        except SingularityError as e:
            raise SingularityError(f"forward iteration {j}: {e}") from e
    return Trajectory(tuple(snaps), gamma=float(gamma), params=p)
