"""Proximal inversion of forward steps for a single augmented point.

One forward step is undone by minimizing the anchor-penalized objective

    H(v) = ||v - y||^2 / 2 - (gamma / n) * sum_i W(v - x_i)

whose stationary point satisfies the inversion identity
``v - (gamma / n) * sum_i grad W(v - x_i) = y``.  H is convex whenever
gamma * L_W < 1; above that guard its Hessian near a particle can exceed
2 / beta, where fixed steps of size beta oscillate instead of descending.

The inner solver is gradient descent with a descent safeguard.  Each
iteration tries the full step beta; with g the current gradient and g_c the
gradient at the candidate point, the step is kept when
``g . g_c >= -(1 - DESCENT_C) * |g|^2`` and halved otherwise.  On a quadratic
this keeps exactly the steps with step * lambda < 2 - DESCENT_C, so where
plain gradient descent already descends the iterates are the plain ones, at
no extra gradient evaluation (g_c is the next iteration's gradient).  The
loop is capped at T iterations with early stopping on the gradient norm.
Walking the inversions from snapshot k down to snapshot 0 transports a fresh
point back to the data distribution.

The loop steps in Python floats: the iterate, the anchor, the gradient of H
and the candidate are lists of d floats, and numpy does only the (d, n) work,
one :func:`mean_field_gradient` call per gradient, which takes the list as
it is and subtracts one coordinate at a time.  Each element is rounded
as the array formula rounds it, so the iterates are those of numpy vector
arithmetic; only the dot products g . g and g . g_c are Python sums of the d
products, which can round differently from a BLAS dot in the last bit.

H and its gradient evaluate the point against the snapshot the same way:
:func:`_fill` writes the differences ``v - x_i``, their squares and
``q = ||v - x_i||^2 + eps`` into the buffers of one :class:`_Workspace` and
passes ``q`` to :func:`efs.potential.check_separation`, so a zero separation
raises.  :func:`invert_step` builds its workspace once per call, so its inner
loop allocates no (d, n) block.  H, :func:`invert_step` and
:func:`augmented_forward_map` take their points through one check
(:func:`_point`), so a point that is not a finite vector of the snapshot's
dimension raises the same :class:`ValueError` at each of them.

:func:`run_backward` takes a memo dict that :func:`efs.pipeline.invert_batch`
shares across a batch, so a (step, start) that two samples reach is inverted
once; the reused result is the same bits.
"""

from __future__ import annotations

import logging
import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import InstabilityError, SingularityError, check_bound
from .forward import ParticleSet, Trajectory
from .potential import (PotentialParams, aligned_empty, check_separation, gradient_coef,
                        pair_hessian_spectral_bound, pair_value)

logger = logging.getLogger(__name__)

SNAPSHOT_MODES = ("paper", "exact")

# Slack of the inner-step descent test and the bound on halvings per iteration.
DESCENT_C = 1e-4
MAX_HALVINGS = 30


@dataclass(frozen=True)
class BackwardConfig:
    """Inner-loop settings for the proximal inversion.

    ``gamma`` is the step size :func:`invert_step` undoes (:func:`run_backward`
    uses the trajectory's own); ``beta`` is the initial (largest) inner
    gradient step, which the descent safeguard may halve within an
    iteration; ``T`` caps inner iterations; ``grad_tol`` stops the inner loop
    early once the objective gradient norm falls below it.
    """

    gamma: float
    beta: float
    T: int
    grad_tol: float = 1e-10

    def __post_init__(self):
        check_bound("gamma", self.gamma, 0, finite=True)
        check_bound("beta", self.beta, 0, strict=True, finite=True)
        # range(T) in the inner loop needs an integer, not a float like 2.0
        if not (isinstance(self.T, numbers.Integral) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        check_bound("grad_tol", self.grad_tol, 0, finite=True)


@dataclass(frozen=True)
class BackwardPath:
    """Backward iterates y^(k), ..., y^(0) and per-step final residuals.

    ``points[0]`` is the starting point; ``points[-1]`` is the generated
    sample.  One residual (final inner gradient norm) is recorded per
    inversion, so ``len(points) == len(inner_residuals) + 1``.
    """

    points: np.ndarray
    inner_residuals: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.points)):
            raise ValueError("backward path contains non-finite points")

    @property
    def generated(self) -> np.ndarray:
        return self.points[-1]


class _Workspace:
    """Buffers for evaluating points against one snapshot (:func:`_fill`).

    The buffers are one :func:`efs.potential.aligned_empty` allocation, each
    starting on a 64-byte boundary wherever malloc puts it.  ``cols`` is a
    contiguous (d, n) copy of the snapshot's positions, ``t``
    takes the differences v - x_i, the first d rows of ``w`` (the stored view
    ``sq``) their squares and its last row holds eps, and ``q`` takes the sum
    of ``w``'s rows, then, in the gradient, its coefficients; ``n`` is the
    particle count.  ``rows`` pairs each coordinate's column of ``cols`` with
    its row of ``t``, so the fill subtracts one float per coordinate from a
    column instead of broadcasting a (d, 1) array.  H builds one per value;
    the gradients of one inversion share one, built once per
    :func:`invert_step` call, so its inner loop allocates no (d, n) block; for
    s > 0 the power ``q^(s/2)`` still takes one length-n temporary
    (:func:`efs.potential.gradient_coef`).
    """

    __slots__ = ("cols", "t", "w", "sq", "q", "n", "rows")

    def __init__(self, snap: ParticleSet, p: PotentialParams):
        n, d = snap.positions.shape
        self.n = n
        self.cols, self.t, self.w, self.q = aligned_empty((d, n), (d, n), (d + 1, n), (n,))
        np.copyto(self.cols, snap.positions.T)
        self.w[-1] = p.epsilon
        self.sq = self.w[:-1]
        self.rows = tuple(zip(self.cols, self.t))


def _fill(v, work: _Workspace, p: PotentialParams) -> np.ndarray:
    """Evaluate the point ``v`` against ``work``'s snapshot; returns ``q``.

    ``v`` is d floats, a list or a 1-d array; a point of another length
    raises :class:`ValueError` (a strict ``zip`` over the coordinates).  Each
    coordinate's differences go to its row of ``work.t``, their squares to
    ``work.sq``, and one axis-0 reduction of ``work.w`` adds the rows in
    order, so ``q = ((t_0^2 + t_1^2) + ...) + eps``.  ``q`` is ``work.q``,
    checked by :func:`efs.potential.check_separation`.
    """
    for vk, (col, tk) in zip(v, work.rows, strict=True):
        np.subtract(vk, col, out=tk)
    np.square(work.t, out=work.sq)
    q = np.add.reduce(work.w, axis=0, out=work.q)
    check_separation(q, p.epsilon)
    return q


def mean_field_gradient(v, snap: ParticleSet, p: PotentialParams,
                        work: _Workspace | None = None) -> np.ndarray:
    """(1/n) * sum_i grad W(v - x_i) over the snapshot particles.

    ``v`` is the point as d floats, a list (the inner loop's) or a 1-d array;
    a point of another length raises :class:`ValueError` (see :func:`_fill`),
    and a non-finite one gives a non-finite gradient.  The coefficients
    overwrite the filled ``q``, and one (d, n) @ (n,) product reduces them.
    ``work`` must be built for ``snap`` and ``p``; without it one is built for
    this call.  The result is a new array.
    """
    if work is None:
        work = _Workspace(snap, p)
    q = _fill(v, work, p)
    g = work.t @ gradient_coef(q, p.s, out=q)
    g /= work.n
    return g


def _point(y, snap: ParticleSet) -> list:
    """``y`` as a list of d finite floats, d the snapshot's dimension.

    Raises :class:`ValueError` for any other shape or a non-finite entry.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (snap.d,):
        raise ValueError(
            f"start must be a vector of the snapshot's dimension {snap.d}, got shape {y.shape}")
    point = y.tolist()
    if not all(map(math.isfinite, point)):
        raise ValueError(f"start must be finite, got {point}")
    return point


def augmented_forward_map(y: np.ndarray, snap: ParticleSet, gamma: float,
                          p: PotentialParams) -> np.ndarray:
    """The forward map a single augmented point would follow against ``snap``.

    ``y`` must be a finite vector of the snapshot's dimension, as a start of
    :func:`invert_step` must (the same :class:`ValueError`).
    """
    point = _point(y, snap)
    return np.array(point) - gamma * mean_field_gradient(point, snap, p)


def prox_objective(v, anchor, snap: ParticleSet, cfg: BackwardConfig,
                   p: PotentialParams) -> float:
    """The inner objective H(v); convex whenever gamma * L_W < 1.

    ``v`` and ``anchor`` must be finite vectors of the snapshot's dimension,
    as a start of :func:`invert_step` must (the same :class:`ValueError`).
    """
    v, anchor = _point(v, snap), _point(anchor, snap)
    work = _Workspace(snap, p)
    q = _fill(v, work, p)
    mean_w = float(pair_value(np.add.reduce(work.sq, axis=0), q, p.s).sum()) / snap.n
    dv = np.subtract(v, anchor)
    return 0.5 * float(dv @ dv) - cfg.gamma * mean_w


def _prox_gradient(v, anchor, snap: ParticleSet, cfg: BackwardConfig,
                   p: PotentialParams, work: _Workspace | None = None) -> list:
    """The gradient of H at ``v``: ``(v - anchor) - gamma * mean_field_gradient``.

    ``v`` and ``anchor`` are sequences of d floats (lists in the inner loop of
    :func:`invert_step`); the result is a list of d floats.  Each entry is
    ``(m_k * -gamma) + (v_k - anchor_k)``, which IEEE arithmetic rounds exactly
    as the formula; ``work`` is passed on to :func:`mean_field_gradient`.
    """
    neg_gamma = -cfg.gamma
    m = mean_field_gradient(v, snap, p, work)
    return [(mk * neg_gamma) + (vk - yk) for mk, vk, yk in zip(m.tolist(), v, anchor)]


def _dot(a: list, b: list) -> float:
    """Python's sum of the products ``a_k * b_k``, for the inner loop's d-lists.

    Left to right before Python 3.12, compensated from 3.12 on (the same for
    d <= 2); either can differ from a BLAS dot in the last bit.
    """
    return sum(map(operator.mul, a, b))


def _warn_convexity_guard(gamma: float, p: PotentialParams):
    # at eps = 0 L_W is unbounded, so every gamma > 0 is above the guard
    bound = 1.0 / pair_hessian_spectral_bound(p) if p.epsilon > 0 else 0.0
    if gamma > 0 and gamma >= bound:
        logger.warning(
            "gamma=%g is at or above the convexity guard 1/L_W=%g; "
            "the proximal objective may be nonconvex near particles",
            gamma, bound,
        )


def _warn_capped(residuals: np.ndarray, cfg: BackwardConfig) -> int:
    """Count a batch's inversions that stopped at the T cap above ``grad_tol``.

    Logs one warning with the count and the worst residual when any did.
    """
    capped = int(np.count_nonzero(residuals > cfg.grad_tol))
    if capped:
        logger.warning(
            "%d of %d inversions in the batch stopped at the T=%d cap above grad_tol=%g "
            "(worst residual %.3g)",
            capped, residuals.size, cfg.T, cfg.grad_tol, float(residuals.max()))
    return capped


def invert_step(y_j, snap: ParticleSet, cfg: BackwardConfig, p: PotentialParams,
                _warn: bool = True):
    """Invert one forward step: minimize H anchored at ``y_j``.

    Each iteration first tries the full step ``beta`` along the negative
    gradient and halves it while the gradient at the candidate points back
    against the current one (see the module text), at most
    ``MAX_HALVINGS`` times.  The iterates are lists of d Python floats; only
    the gradient's (d, n) work goes to numpy.  Returns ``(v, residual)``, a
    float64 array of shape (d,) and a float: ``residual`` is the final
    gradient norm of H at v, and one above ``cfg.grad_tol`` means the T cap
    was reached.  Raises :class:`ValueError` when ``y_j`` is not a finite
    vector of the snapshot's dimension, :class:`SingularityError` on a
    particle at eps = 0 and :class:`InstabilityError` when the gradient is
    non-finite or no step down to ``beta / 2**MAX_HALVINGS`` descends.
    """
    anchor = _point(y_j, snap)
    if _warn:
        _warn_convexity_guard(cfg.gamma, p)
    work = _Workspace(snap, p)
    v = anchor
    g = _prox_gradient(v, anchor, snap, cfg, p, work)
    gg = _dot(g, g)
    for t in range(cfg.T + 1):
        res = math.sqrt(gg)
        if not math.isfinite(res):
            raise InstabilityError(
                f"inner iterates diverged (beta={cfg.beta}); reduce the step size")
        if res <= cfg.grad_tol or t == cfg.T:
            return np.array(v), res
        step = cfg.beta
        for _h in range(MAX_HALVINGS + 1):
            cand = [vk - step * gk for vk, gk in zip(v, g)]
            g_cand = _prox_gradient(cand, anchor, snap, cfg, p, work)
            # NaN fails the comparison, so a step into overflow is halved too
            if _dot(g, g_cand) >= -(1.0 - DESCENT_C) * gg:
                break
            step *= 0.5
        else:
            raise InstabilityError(
                f"no descent step down to beta/2**{MAX_HALVINGS} "
                f"(beta={cfg.beta}); reduce the step size")
        v, g = cand, g_cand
        gg = _dot(g, g)


def run_backward(y_k, traj: Trajectory, cfg: BackwardConfig,
                 snapshot_mode: str = "paper", memo: dict | None = None) -> BackwardPath:
    """Walk the inversions from snapshot k down to snapshot 0.

    ``snapshot_mode="paper"`` uses the same-index schedule: step j inverts
    against snapshot x^(j) for j = k..1.  (A further j = 0 pass would write
    a value the procedure's own output discards, so it is omitted.)
    ``snapshot_mode="exact"`` inverts step j against the pre-step
    snapshot x^(j-1).  That undoes :func:`augmented_forward_map` (an
    augmented point pushed along with the snapshots) up to the inner
    tolerance.  A training particle is not recovered that exactly: the
    forward force on it averages over the other n - 1 particles, while the
    inversion averages over all n, which leaves an O(gamma / n) offset per
    step.  Both modes perform k inversions and return a path of k + 1
    points.  An inversion's error is raised prefixed with ``backward step j=``.

    Every step is inverted with ``traj.gamma``, the only step size that
    undoes the forward map, so ``cfg.gamma`` is not used.  Nothing is
    logged: a T-capped inversion is an ``inner_residuals`` entry above
    ``grad_tol``, which :func:`efs.pipeline.invert_batch` reports.

    ``memo`` maps ``(j, start bytes)`` to the ``(v, residual)`` that
    :func:`invert_step` returned for that start at step j; a start found
    there is not inverted again, and each one inverted is stored.  Without
    one, a fresh dict serves this path alone and finds nothing.
    :func:`invert_step` is a deterministic function of the start, the
    snapshot, the config and the params, so the path is the same bits either
    way.  One dict may serve only runs with the same ``traj``, ``cfg`` and
    ``snapshot_mode``, as the runs of one :func:`efs.pipeline.invert_batch`.
    """
    if snapshot_mode not in SNAPSHOT_MODES:
        raise ValueError(f"snapshot_mode must be one of {SNAPSHOT_MODES}")
    cfg = replace(cfg, gamma=traj.gamma)
    if memo is None:
        memo = {}  # one path meets each step j once, so nothing is found
    cur = np.asarray(y_k, dtype=np.float64)
    points = [cur]
    residuals = []
    for j in range(traj.k, 0, -1):
        key = (j, cur.tobytes())
        if key in memo:
            cur, res = memo[key]
        else:
            snap = traj.snapshots[j if snapshot_mode == "paper" else j - 1]
            try:
                cur, res = invert_step(cur, snap, cfg, traj.params, _warn=False)
            except (InstabilityError, SingularityError) as e:
                raise type(e)(f"backward step j={j}: {e}") from e
            memo[key] = cur, res
        points.append(cur)
        residuals.append(res)
    return BackwardPath(np.array(points), np.array(residuals))
