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
cache.  The forward pass walks only the upper triangle, since the pair force
is odd (grad W(-z) = -grad W(z)): each pair a < b is evaluated once and
its term goes to both particles.  Row a's share is one reduction of the
slice of pairs (a, a+1..n-1), and column b's share is subtracted row by row
in order from a running total, so the forces are bit for bit independent of
how the rows are cut into blocks.

The energy E_n is computed from the same pair blocks as the forces:
:func:`forward_gradient` also sums the pair values and caches E_n on the
particle set, per :class:`PotentialParams`, so :func:`interaction_energy` of a
set that has already taken a forward step builds no pair blocks again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import SingularityError
from .potential import PotentialParams, check_separation, gradient_coef, pair_value

logger = logging.getLogger(__name__)

# Pairs per block.  A block of rows against w columns (w = n, or n - i0 in the
# upper triangle) has max(1, _BLOCK_PAIRS // w) rows, so each of its (rows, w)
# float64 arrays is at most 128 KB, which a core's L2 cache holds.
_BLOCK_PAIRS = 16384


def _block_capacity(rows: int, width: int) -> int:
    """Most pairs in one block of at most ``rows`` rows and ``width`` columns."""
    return min(max(_BLOCK_PAIRS, width), rows * width)


@dataclass(frozen=True)
class ParticleSet:
    """n points in R^d, the support of the empirical measure.

    ``positions`` is a read-only n x d float64 matrix; row i is particle x_i.

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


def pair_blocks(a: np.ndarray, b: np.ndarray | None = None):
    """Yield (i0, i1, t, sq) for the row blocks ``i0:i1`` of ``a``.

    ``t`` holds one difference block per coordinate k and ``sq`` sums their
    squares in coordinate order 0..d-1.  Against ``b``, rows ``i0:i1`` meet
    all of ``b``: ``t[k] = a[i0:i1, k, None] - b[None, :, k]`` of shape
    (rows, len(b)), with rows = ``_BLOCK_PAIRS // len(b)``.

    With ``b`` omitted, the blocks walk the upper triangle of ``a`` against
    itself: rows ``i0:i1`` meet columns ``i0:n``, so ``t[k]`` has shape
    (rows, n - i0), with rows = ``_BLOCK_PAIRS // (n - i0)``, and entry (r, c)
    is the pair (i0 + r, i0 + c).  The entries with c <= r, in the block's
    leading square, are self pairs and mirror images of pairs in the block;
    the caller masks them.  The rows stop at n - 1, the last particle having
    no pair above it.

    Rows are at least 1.  Every block is a view of buffers allocated once
    per call, so a caller is done with a block when it asks for the next.
    """
    upper = b is None
    if upper:
        b = a
    cols = np.ascontiguousarray(b.T)
    n = b.shape[0]
    stop = a.shape[0] - 1 if upper else a.shape[0]
    # Fresh arrays per block let malloc hand heap pages back and fault them in
    # again, which made the MMD ~50 % slower.  One joint buffer in place of
    # one per array raised the benchmark's peak RSS by 0.4-1.1 MB.
    size = _block_capacity(a.shape[0], n)
    bufs = [np.empty(size) for _ in range(len(cols) + 1)]
    i0 = 0
    while i0 < stop:
        j0 = i0 if upper else 0
        width = n - j0
        i1 = min(i0 + max(1, _BLOCK_PAIRS // width), stop)
        *t, sq = (buf[:(i1 - i0) * width].reshape(i1 - i0, width) for buf in bufs)
        for k, c in enumerate(cols):
            np.subtract(a[i0:i1, k, None], c[j0:], out=t[k])
        np.multiply(t[0], t[0], out=sq)
        for tk in t[1:]:
            sq += tk * tk
        yield i0, i1, t, sq
        i0 = i1


@lru_cache(maxsize=4096)
def _upper_layout(rows: int, width: int):
    """Masks and cuts for an upper-triangle block of shape (rows, width).

    Returns ``(lower, cuts)``: ``lower`` is True at the entries with c <= r of
    the block's leading (rows, rows) square, and
    ``np.add.reduceat(block.ravel(), cuts)[::2]`` sums each row r over c > r,
    the slice ``block[r, r + 1:]`` that pairs particle i0 + r with every
    particle above it.
    """
    lower = np.tri(rows, dtype=bool)
    cuts = np.empty(2 * rows - 1, dtype=np.intp)
    cuts[0::2] = np.arange(rows) * (width + 1) + 1
    cuts[1::2] = np.arange(1, rows) * width
    lower.setflags(write=False)
    cuts.setflags(write=False)
    return lower, cuts


def _self_pair_pass(ps: ParticleSet, p: PotentialParams, forces=None) -> float:
    """E_n of ``ps`` from the blocks of ``pair_blocks(x)``, cached on ``ps``.

    Each pair a < b is evaluated once.  With ``forces`` (n x d), the
    unnormalized forces are written there: the pair term P = coef * (x_a - x_b)
    goes to row a with a plus sign and to row b with a minus sign.  Row a's
    plus terms are one reduction of the slice ``P[a, a + 1:]`` of its block;
    row b's minus terms are subtracted one row at a time, in row order, from a
    running total.  Neither depends on how the rows are cut into blocks, so
    neither do the forces.  The energy is twice the sum of each row's pair
    values, reduced the same way.

    ``q`` is the regularized squared distance with the masked entries (see
    :func:`pair_blocks`) set to 1, so the potential and its coefficient are
    finite there and the coefficient is 0.  Coincident distinct pairs with
    eps=0 raise.  Besides the generator's, a block uses two buffers: the
    coefficient overwrites ``q`` once the pair values are summed, and the pair
    terms overwrite the pair values.
    """
    x = ps.positions
    n, d = x.shape
    size = _block_capacity(n, n)
    qbuf, pbuf = np.empty(size), np.empty(size + n)
    row_energy = np.empty(n - 1)
    plus, minus = np.zeros((n, d)), np.zeros((d, n))
    for i0, i1, t, sq in pair_blocks(x):
        rows, width = sq.shape
        lower, cuts = _upper_layout(rows, width)
        q = np.add(sq, p.epsilon, out=qbuf[:sq.size].reshape(sq.shape))
        np.copyto(q[:, :rows], 1.0, where=lower)
        check_separation(q, p.epsilon)
        w = pair_value(sq, q, p.s, out=pbuf[:sq.size].reshape(sq.shape))
        row_energy[i0:i1] = np.add.reduceat(w.ravel(), cuts)[::2]
        if forces is not None:
            coef = gradient_coef(q, p.s, out=q)
            # row 0 carries the running total of the columns' minus terms
            pair = pbuf[:sq.size + width].reshape(rows + 1, width)
            for k, tk in enumerate(t):
                pair[0] = minus[k, i0:]
                np.multiply(coef, tk, out=pair[1:])
                plus[i0:i1, k] = np.add.reduceat(pair[1:].ravel(), cuts)[::2]
                np.subtract.reduce(pair, axis=0, out=minus[k, i0:])
    if forces is not None:
        np.add(plus, minus.T, out=forces)
    ps._energy[p] = 2.0 * float(row_energy.sum()) / (n * (n - 1))
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
