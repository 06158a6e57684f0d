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
cache.  The forward pass takes all of its block buffers from one arena per
thread, a single allocation cut into slices that each start on a 64-byte
cache line, allocated once per shape and kept, so a pass maps and faults in
no buffer again; the metrics' blocks are allocated per call.  Each
difference block is one BLAS product with K = 2,
[a_k, 1] @ [1; -b_k]: an entry a_k * 1 + 1 * (-b_k) is two exact products
and one rounding, so it holds the bits of a_k - b_k (save that -0.0 against
+0.0 gives +0.0, not -0.0) at about a third of a broadcast subtract's cost.
The forward pass walks only the upper triangle, since the pair force
is odd (grad W(-z) = -grad W(z)): each pair a < b is evaluated once and
its term goes to both particles.  Row a's share is one reduction of the
slice of pairs (a, a+1..n-1), and column b's share is subtracted row by row
in order from a running total, so the forces are bit for bit independent of
how the rows are cut into blocks.  A pair is evaluated for W's repulsion
only, its value and its coefficient r with grad W(z) = (1 - r) * z; for
s > 0 it takes one power, q^(s/2), a square root at s = 1.  W's attraction
is added once per pass, from the exact centred closed forms of its pair sums
(see :mod:`efs.potential`).

This module owns a run's energies.  E_n is computed from the same pair
blocks as the forces: :func:`forward_gradient` also sums the repulsion and
caches E_n on the particle set, per :class:`PotentialParams`, so
:func:`interaction_energy` of a set that has already taken a forward step
builds no pair blocks again.  :func:`run_forward` computes the final
snapshot's E_n, checks every snapshot's energy for finiteness under one rule
and warns when the energy did not fall; :func:`energy_trace` reads the
cached values back.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InstabilityError, SingularityError, check_bound
from .potential import (PotentialParams, aligned_empty, attraction_sums, check_separation,
                        repulsion, repulsion_coef)

logger = logging.getLogger(__name__)

# Pairs per block.  A block of rows against w columns (w = n, or n - i0 in the
# upper triangle) has max(1, _BLOCK_PAIRS // w) rows, so each of its (rows, w)
# float64 arrays is at most 128 KB, which a core's L2 cache holds.
_BLOCK_PAIRS = 16384

# This thread's pass buffers (see _pass_buffers).
_arena = threading.local()


def _block_capacity(rows: int, width: int) -> int:
    """Most pairs in one block of at most ``rows`` rows and ``width`` columns."""
    return min(max(_BLOCK_PAIRS, width), rows * width)


def _pass_buffers(n: int, d: int) -> list:
    """This thread's block buffers for a pass over n points in R^d.

    They are d + 4 flat buffers: the d difference blocks, ``sq`` and the
    scratch slot that :func:`pair_blocks` fills, then ``q`` and ``w`` of
    :func:`_self_pair_pass`, ``w`` one row of n longer.  They are one
    :func:`aligned_empty` allocation per (n, d, block capacity), about
    (d + 4) * (_BLOCK_PAIRS + n) * 8 bytes, kept for the thread's later passes
    of that shape: malloc maps and unmaps a 128 KB buffer allocated per pass,
    which cost 160 minor faults per pass at n = 400.
    """
    size = _block_capacity(n, n)
    key = (n, d, size)
    if getattr(_arena, "key", None) != key:
        _arena.bufs = aligned_empty(*[(size,)] * (d + 3), (size + n,))
        _arena.key = key
    return _arena.bufs


@dataclass(frozen=True)
class ParticleSet:
    """n points in R^d, the support of the empirical measure.

    ``positions`` is a read-only n x d float64 matrix; row i is particle x_i.

    Two sets are equal when their positions are.  Beside the positions the set
    holds one cache, ``_energy``, which shows in neither ``repr`` nor equality:
    E_n per :class:`PotentialParams`, filled by :func:`forward_gradient` and
    :func:`interaction_energy` and read by the latter.  It is a pure function
    of the read-only positions and the params, so it never goes stale.
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


def pair_blocks(a: np.ndarray, b: np.ndarray | None = None, bufs=None):
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

    Rows are at least 1.  Every block is a view of d + 2 flat buffers of at
    least ``_block_capacity(len(a), len(b))`` floats, the d difference blocks,
    ``sq`` and a scratch slot for each later square, so a caller is done with a
    block when it asks for the next.  ``bufs`` hands them in (the forward
    pass's come from its arena, :func:`_pass_buffers`); without it they are
    allocated once per call.

    Each ``t[k]`` is filled by one matmul, ``[a_k, 1] @ [1; -b_k]``, from
    factors built once per call.  With K = 2 every entry is a_k * 1 +
    1 * (-b_k), two exact products and one rounding in any order, so ``t``
    holds the bits of the subtract with one exception: -0.0 against +0.0
    gives +0.0 where the subtract gives -0.0.  The values are equal, and the
    squares in ``sq`` carry no sign, so ``sq`` is the subtract's bit for bit.
    """
    upper = b is None
    if upper:
        b = a
    n, d = b.shape
    left = np.ones((d, a.shape[0], 2))
    left[..., 0] = a.T
    right = np.ones((d, 2, n))
    np.negative(b.T, out=right[:, 1])
    stop = a.shape[0] - 1 if upper else a.shape[0]
    # Fresh arrays per block let malloc hand heap pages back and fault them in
    # again, which made the MMD ~50 % slower.
    if bufs is None:
        size = _block_capacity(a.shape[0], n)
        bufs = [np.empty(size) for _ in range(d + 2)]
    i0 = 0
    while i0 < stop:
        j0 = i0 if upper else 0
        width = n - j0
        i1 = min(i0 + max(1, _BLOCK_PAIRS // width), stop)
        *t, sq, scratch = (buf[:(i1 - i0) * width].reshape(i1 - i0, width) for buf in bufs)
        for k in range(d):
            np.matmul(left[k, i0:i1], right[k, :, j0:], out=t[k])
        np.multiply(t[0], t[0], out=sq)
        for tk in t[1:]:
            sq += np.multiply(tk, tk, out=scratch)
        yield i0, i1, t, sq
        i0 = i1


@lru_cache(maxsize=None)
def _upper_layout(rows: int, width: int):
    """Masks and cuts for an upper-triangle block of shape (rows, width).

    Returns ``(lower, cuts)``: ``lower`` is True at the entries with c <= r of
    the block's leading (rows, rows) square, and
    ``np.add.reduceat(block.ravel(), cuts)[::2]`` sums each row r over c > r,
    the slice ``block[r, r + 1:]`` that pairs particle i0 + r with every
    particle above it.  The cache has no bound: a pass walks the same shapes
    every time, 4185 of them at n = 10^4 (about 1.6 MB of layouts), and a bounded
    LRU smaller than that count would miss on every block.
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

    Each pair a < b is evaluated once, and only for W's repulsion: its value
    ``rep`` and its coefficient r, with grad W(z) = (1 - r) * z (see
    :mod:`efs.potential`).  W's attraction is added once per pass, in the
    centred closed form of :func:`attraction_sums`, so with m the mean
    position the energy is (n * sum_a ||x_a - m||^2 + 2 * sum_{a<b} rep_ab) /
    (n (n - 1)) and the unnormalized force on a is
    n * (x_a - m) - sum_{b != a} r_ab (x_a - x_b).

    With ``forces`` (n x d), the unnormalized forces are written there: the
    pair term P = r * (x_a - x_b) goes to row a with a plus sign and to row b
    with a minus sign, and the attraction's share minus both is the force.
    Row a's plus terms are one reduction of the slice ``P[a, a + 1:]`` of its
    block; row b's minus terms are subtracted one row at a time, in row
    order, from a running total.  Neither depends on how the rows are cut into
    blocks, so neither do the forces.  The repulsion's share of the energy is
    twice the sum of each row's values, reduced the same way.

    ``q`` is the regularized squared distance with the masked entries (see
    :func:`pair_blocks`) set to 1, so the repulsion is finite there; r is set
    to 0 there, as the running total sums every row of the block.  Coincident
    distinct pairs with eps=0 raise.  For s > 0 each pair takes one power,
    ``u = q^(s/2)`` (a square root at s = 1), and the energy is the same with
    or without ``forces``.  Besides the generator's, a block uses two
    buffers: one for ``q``, which r overwrites once the repulsion is summed,
    and one for ``u``, which the repulsion and then the pair terms overwrite.
    All of a block's buffers come from this thread's arena
    (:func:`_pass_buffers`), so a pass allocates none of them.
    """
    x = ps.positions
    n, d = x.shape
    *blocks, qbuf, wbuf = _pass_buffers(n, d)
    row_energy = np.empty(n - 1)
    plus, minus = np.zeros((n, d)), np.zeros((d, n))
    for i0, i1, t, sq in pair_blocks(x, bufs=blocks):
        rows, width = sq.shape
        lower, cuts = _upper_layout(rows, width)
        q = np.add(sq, p.epsilon, out=qbuf[:sq.size].reshape(sq.shape))
        np.copyto(q[:, :rows], 1.0, where=lower)
        check_separation(q, p.epsilon)
        w = wbuf[:sq.size].reshape(sq.shape)
        rep = repulsion(q, p.s, out=w)
        row_energy[i0:i1] = np.add.reduceat(rep.ravel(), cuts)[::2]
        if forces is not None:
            r = repulsion_coef(q, p.s, rep, out=q)
            np.copyto(r[:, :rows], 0.0, where=lower)
            # row 0 carries the running total of the columns' minus terms
            pair = wbuf[:sq.size + width].reshape(rows + 1, width)
            for k, tk in enumerate(t):
                pair[0] = minus[k, i0:]
                np.multiply(r, tk, out=pair[1:])
                plus[i0:i1, k] = np.add.reduceat(pair[1:].ravel(), cuts)[::2]
                np.subtract.reduce(pair, axis=0, out=minus[k, i0:])
    pull_energy, pull = attraction_sums(x)
    if forces is not None:
        np.add(plus, minus.T, out=forces)
        np.subtract(pull, forces, out=forces)
    ps._energy[p] = 2.0 * (pull_energy + float(row_energy.sum())) / (n * (n - 1))
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


def _check_finite(gamma: float, *values) -> None:
    """The finiteness rule of a forward run: raise :class:`InstabilityError`
    unless every value (positions or an energy) is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise InstabilityError(f"the step left the finite range (gamma={gamma}); reduce gamma")


def forward_step(ps: ParticleSet, gamma: float, p: PotentialParams) -> ParticleSet:
    """One simultaneous gradient step; preserves the center of mass.

    A step that leaves the finite range, in the new positions or in E_n of
    ``ps`` summed on the way, raises :class:`InstabilityError`; numpy's
    overflow warnings inside the step are silenced, as the error reports it.
    """
    check_bound("gamma", gamma, 0, finite=True)
    with np.errstate(over="ignore", invalid="ignore"):
        x = ps.positions - gamma * forward_gradient(ps, p)
    _check_finite(gamma, x, interaction_energy(ps, p))
    return ParticleSet(x)


def run_forward(ps0: ParticleSet, gamma: float, k: int, p: PotentialParams) -> Trajectory:
    """Run k forward steps, recording every snapshot (k + 1 in total).

    Each step computes E_n of the snapshot it leaves; after the last step the
    final snapshot's E_n is computed too, so every snapshot's energy is cached
    and checked by the step's finiteness rule.  A failure is prefixed
    ``forward iteration j:``, j being the snapshot whose step or energy left
    the finite range (k for the final snapshot's energy).  Logs a warning when
    the energy did not decrease over the run, and one when ``p.s`` lies
    outside [d - 2, d), where the cited limit-law theory (see :mod:`efs`)
    does not apply.
    """
    check_bound("k", k, 1)
    d = ps0.d
    if not d - 2 <= p.s < d:
        logger.warning("s=%g is outside [d-2, d)=[%d, %d) where the cited limit-law theory "
                       "applies", p.s, d - 2, d)
    snaps = [ps0]
    try:
        for _ in range(k):
            snaps.append(forward_step(snaps[-1], gamma, p))
        with np.errstate(over="ignore", invalid="ignore"):
            final = interaction_energy(snaps[-1], p)
        _check_finite(gamma, final)
    except (SingularityError, InstabilityError) as e:
        raise type(e)(f"forward iteration {len(snaps) - 1}: {e}") from e
    first = interaction_energy(ps0, p)
    if final >= first:
        logger.warning("energy did not decrease over the run (%g -> %g)", first, final)
    return Trajectory(tuple(snaps), gamma=float(gamma), params=p)


def energy_trace(traj: Trajectory):
    """Interaction energy per snapshot (length k + 1).

    On a trajectory from :func:`run_forward` every snapshot carries its
    cached energy, so no pair blocks are built here; the values are
    bit-identical to recomputing each one.
    """
    return [interaction_energy(s, traj.params) for s in traj.snapshots]
