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

H takes its pair values from the one row block of
``efs.forward.pair_blocks(v[None], snap.positions)``.  The inner gradient, the
hot path, builds the same differences ``v - x_i`` inline, one length-n row per
coordinate read from the snapshot's cached (d, n) ``columns``, which serve all
of a batch's samples and inner iterations against it.  Both pass their ``q`` to
:func:`efs.potential.check_separation`, so a zero separation raises.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, SingularityError
from .forward import ParticleSet, Trajectory, pair_blocks
from .potential import (PotentialParams, check_separation, gradient_coef,
                        pair_hessian_spectral_bound, pair_value)

logger = logging.getLogger(__name__)

SNAPSHOT_MODES = ("paper", "exact")

# Slack of the inner-step descent test and the bound on halvings per iteration.
DESCENT_C = 1e-4
MAX_HALVINGS = 30


@dataclass(frozen=True)
class BackwardConfig:
    """Inner-loop settings for the proximal inversion.

    ``gamma`` must equal the trajectory's forward step size; ``beta`` is the
    initial (largest) inner gradient step, which the descent safeguard may
    halve within an iteration; ``T`` caps inner iterations; ``grad_tol``
    stops the inner loop early once the objective gradient norm falls below
    it.
    """

    gamma: float
    beta: float
    T: int
    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")


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


def mean_field_gradient(v: np.ndarray, snap: ParticleSet, p: PotentialParams) -> np.ndarray:
    """(1/n) * sum_i grad W(v - x_i) over the snapshot particles.

    Works on the snapshot's cached (d, n) ``columns``: one row of differences
    per coordinate, squared and summed in the order of ``pair_blocks``, then
    reduced by a (d, n) @ (n,) product.
    """
    t = v[:, None] - snap.columns
    q = t[0] * t[0]
    for tk in t[1:]:
        q += tk * tk
    q += p.epsilon
    check_separation(q, p.epsilon)
    return t @ gradient_coef(q, p.s) / snap.n


def augmented_forward_map(y: np.ndarray, snap: ParticleSet, gamma: float,
                          p: PotentialParams) -> np.ndarray:
    """The forward map a single augmented point would follow against ``snap``."""
    return y - gamma * mean_field_gradient(np.asarray(y, float), snap, p)


def prox_objective(v, anchor, snap: ParticleSet, cfg: BackwardConfig,
                   p: PotentialParams) -> float:
    """The inner objective H(v); convex whenever gamma * L_W < 1."""
    v = np.asarray(v, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    # one row against all n particles is a single block
    (_i0, _i1, _t, sq), = pair_blocks(v[None], snap.positions)
    q = sq + p.epsilon
    check_separation(q, p.epsilon)
    mean_w = float(pair_value(sq, q, p.s).sum()) / snap.n
    dv = v - anchor
    return 0.5 * float(dv @ dv) - cfg.gamma * mean_w


def _prox_gradient(v: np.ndarray, anchor: np.ndarray, snap: ParticleSet,
                   cfg: BackwardConfig, p: PotentialParams) -> np.ndarray:
    return v - anchor - cfg.gamma * mean_field_gradient(v, snap, p)


def _warn_convexity_guard(cfg: BackwardConfig, p: PotentialParams):
    if p.epsilon <= 0:
        return
    bound = 1.0 / pair_hessian_spectral_bound(p)
    if cfg.gamma >= bound:
        logger.warning(
            "gamma=%g is at or above the convexity guard 1/L_W=%g; "
            "the proximal objective may be nonconvex near particles",
            cfg.gamma, bound,
        )


def _warn_config(cfg: BackwardConfig, traj: Trajectory):
    """Log a gamma mismatch with ``traj`` and a ``cfg`` above the convexity guard."""
    if cfg.gamma != traj.gamma:
        logger.warning("backward gamma=%g differs from trajectory gamma=%g",
                       cfg.gamma, traj.gamma)
    _warn_convexity_guard(cfg, traj.params)


def _warn_capped(residuals: np.ndarray, cfg: BackwardConfig, scope: str = "") -> int:
    """Count the inversions that stopped at the T cap above ``grad_tol``.

    Logs one warning with the count and the worst residual when any did;
    ``scope`` is inserted after "inversions" to say what was counted.
    """
    capped = int(np.count_nonzero(residuals > cfg.grad_tol))
    if capped:
        logger.warning(
            "%d of %d inversions%s stopped at the T=%d cap above grad_tol=%g "
            "(worst residual %.3g)",
            capped, residuals.size, scope, cfg.T, cfg.grad_tol, float(residuals.max()))
    return capped


def invert_step(y_j, snap: ParticleSet, cfg: BackwardConfig, p: PotentialParams,
                _warn: bool = True):
    """Invert one forward step: minimize H anchored at ``y_j``.

    Each iteration first tries the full step ``beta`` along the negative
    gradient and halves it while the gradient at the candidate points back
    against the current one (see the module text), at most
    ``MAX_HALVINGS`` times.  Returns ``(v, residual)`` where ``residual`` is
    the final gradient norm of H at v; a residual above ``cfg.grad_tol``
    means the T cap was reached.  Raises :class:`SingularityError` on a
    particle at eps = 0 and :class:`InstabilityError` when the gradient is
    non-finite or no step down to ``beta / 2**MAX_HALVINGS`` descends.
    """
    if _warn:
        _warn_convexity_guard(cfg, p)
    y = np.asarray(y_j, dtype=np.float64)
    v = y.copy()
    g = _prox_gradient(v, y, snap, cfg, p)
    gg = float(g @ g)
    for t in range(cfg.T + 1):
        res = math.sqrt(gg)
        if not math.isfinite(res):
            raise InstabilityError(
                f"inner iterates diverged (beta={cfg.beta}); reduce the step size")
        if res <= cfg.grad_tol or t == cfg.T:
            return v, res
        step = cfg.beta
        for _h in range(MAX_HALVINGS + 1):
            cand = v - step * g
            g_cand = _prox_gradient(cand, y, snap, cfg, p)
            # NaN fails the comparison, so a step into overflow is halved too
            if float(g @ g_cand) >= -(1.0 - DESCENT_C) * gg:
                break
            step *= 0.5
        else:
            raise InstabilityError(
                f"no descent step down to beta/2**{MAX_HALVINGS} "
                f"(beta={cfg.beta}); reduce the step size")
        v, g = cand, g_cand
        gg = float(g @ g)


def run_backward(y_k, traj: Trajectory, cfg: BackwardConfig,
                 snapshot_mode: str = "paper", _warn: bool = True) -> BackwardPath:
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

    Inversions that stop at the T cap with a residual above ``grad_tol``
    are reported in one warning per call, with their count and the worst
    residual.  ``_warn=False`` skips that warning and the gamma-mismatch
    and convexity-guard warnings, so a batch can log each of them once.
    """
    if snapshot_mode not in SNAPSHOT_MODES:
        raise ValueError(f"snapshot_mode must be one of {SNAPSHOT_MODES}")
    if _warn:
        _warn_config(cfg, traj)
    k = traj.k
    cur = np.asarray(y_k, dtype=np.float64)
    points = [cur]
    residuals = []
    for j in range(k, 0, -1):
        snap = traj.snapshots[j if snapshot_mode == "paper" else j - 1]
        try:
            cur, res = invert_step(cur, snap, cfg, traj.params, _warn=False)
        except (InstabilityError, SingularityError) as e:
            raise type(e)(f"backward step j={j}: {e}") from e
        points.append(cur)
        residuals.append(res)
    residuals = np.array(residuals)
    if _warn:
        _warn_capped(residuals, cfg)
    return BackwardPath(np.array(points), residuals)
