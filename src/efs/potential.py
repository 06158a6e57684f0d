"""The attractive-repulsive pair potential and its derivatives.

The pair interaction combines a quadratic attraction with a regularized
inverse-power repulsion:

    W(z) = ||z||^2 / 2 + 1 / (s * (||z||^2 + eps)^(s/2))        for s > 0
    W(z) = ||z||^2 / 2 - log(||z||^2 + eps) / 2                 for s = 0

The gradient has the single closed form

    grad W(z) = z * (1 - r),    r = 1 / (q * q^(s/2)),    q = ||z||^2 + eps,

valid for every s >= 0, including the logarithmic branch (q^0 = 1).  The
elementwise functions :func:`repulsion`, :func:`pair_value`,
:func:`gradient_coef` and :func:`repulsion_coef` take the regularized squared
distance ``q`` and, with :func:`attraction_sums`, are the one place W is
written; the array code in forward, backward and metrics calls them on whole
blocks of ``q``, and the forward pass has them write into buffers it reuses
from block to block.  Those buffers, and the backward's workspace, are cut
from one allocation each by :func:`aligned_empty`, every one starting on a
64-byte cache line.

The attraction's pair sums over a point set have exact closed forms, so the
forward pass evaluates only the repulsion per pair: :func:`repulsion` and,
from its value, the repulsion coefficient r (:func:`repulsion_coef`); it adds
the attraction once per pass from :func:`attraction_sums`.  For s > 0 the
repulsion takes one power per pair, ``u = q^(s/2)`` (:func:`shared_power`, a
square root at s = 1).  The backward's gradient keeps the coefficient 1 - r
(:func:`gradient_coef`).  W is undefined only at zero separation with eps = 0;
every evaluation, here, in the forward pass and in the backward gradient and
objective, passes its ``q`` to :func:`check_separation`, the one check for
that case.  All functions here are pure and stateless.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, check_bound

# Each buffer cut from a joint allocation starts on a 64-byte cache line: at
# n = 2000 a backward gradient took 20.5 us with its workspace at a 16-byte
# offset and 19.2 us at a 0-byte one (2-vCPU Xeon VM, one BLAS thread).
_ALIGN = 64


@dataclass(frozen=True)
class PotentialParams:
    """Exponent ``s`` and regularizer ``epsilon`` of the pair potential.

    ``epsilon`` is in squared-length units.  Both must be nonnegative;
    ``epsilon > 0`` is required by any evaluation at zero separation and by
    the curvature bounds.
    """

    s: float
    epsilon: float

    def __post_init__(self):
        check_bound("s", self.s, 0, finite=True)
        check_bound("epsilon", self.epsilon, 0, finite=True)


def _check_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("input vector has non-finite components")
    return z


def shared_power(q, s: float, out=None):
    """``u = q^(s/2)``, the power W's repulsion and ∇W's coefficient take.

    ``None`` for s = 0, where neither takes a power.  A square root at s = 1,
    the path an array's ``**`` takes there, called without ``**``'s dispatch;
    for a scalar it is the correctly rounded root, which a float's ``** 0.5``
    (C ``pow``) misses by one ulp for about 1 input in 1200.  Otherwise ``**``, or with ``out`` an in-place ``**=``, which takes the
    fast paths ``**`` takes, so both forms give the same bits.  With ``out``,
    the result is written there; ``out`` may be ``q``.
    """
    if s == 0:
        return None
    if s == 1:
        return np.sqrt(q, out=out)
    if out is None:
        return q ** (s / 2.0)
    if out is not q:
        np.copyto(out, q)
    out **= s / 2.0
    return out


def repulsion(q, s: float, out=None):
    """Repulsive part of W at regularized squared distance ``q``.

    ``-log(q) / 2`` for s = 0, otherwise ``1 / (s * u)`` with ``u =
    q^(s/2)`` from :func:`shared_power` (``1 / u`` at s = 1); for s > 0 it is
    also the MMD kernel.  Elementwise on arrays; ``out``, when given, is an
    array of ``q``'s shape that receives the power and then the result.
    """
    if s == 0:
        return np.multiply(np.log(q, out=out), -0.5, out=out)
    u = shared_power(q, s, out)
    if s != 1:
        u = np.multiply(u, s, out=out)
    return np.divide(1.0, u, out=out)


def repulsion_coef(q, s: float, rep, out=None):
    """The scalar r with grad W(z) = (1 - r) * z, at ``q = ||z||^2 + eps``.

    Taken from ``rep``, :func:`repulsion`'s value at ``q``: ``s * rep / q``
    for s > 0 (``rep / q`` at s = 1), which is ``1 / (q * q^(s/2))`` up to
    rounding, and ``1 / q`` at s = 0.  With ``out``, the result is written
    there; ``out`` may be ``q``.
    """
    if s == 0:
        return np.divide(1.0, q, out=out)
    r = np.divide(rep, q, out=out)
    return r if s == 1 else np.multiply(r, s, out=out)


def attraction_sums(x):
    """W's attraction ``||z||^2 / 2`` summed over the pairs of ``x``'s rows.

    Returns ``(e, g)``: ``e = sum_{a<b} ||x_a - x_b||^2 / 2``, which is
    ``(n / 2) * sum_a ||x_a - m||^2`` with m the mean row, and the n x d array
    ``g`` whose row a is the attraction's share of the unnormalized force,
    ``sum_b (x_a - x_b) = n * (x_a - m)``.  Both are centred on m; the
    uncentred ``n * sum ||x_a||^2 - ||sum x_a||^2`` cancels catastrophically
    once the points lie far from the origin.
    """
    n = x.shape[0]
    c = x - x.mean(axis=0)
    e = 0.5 * n * float(np.vdot(c, c))
    return e, np.multiply(c, n, out=c)


def pair_value(sq, q, s: float):
    """W from the squared distance ``sq`` and its regularization ``q``."""
    return np.add(repulsion(q, s), 0.5 * sq)


def gradient_coef(q, s: float, out=None):
    """The scalar c = 1 - r with grad W(z) = c * z, at ``q = ||z||^2 + eps``.

    ``c = 1 - 1 / (q * q^(s/2))``, so ``1 - 1 / q`` at s = 0; the backward's
    gradient takes it.  With ``out``, the result is written there; ``out``
    may be ``q``, and a temporary holds the power.
    """
    if s != 0:
        q = np.multiply(q, shared_power(q, s), out=out)
    c = np.divide(1.0, q, out=out)
    return np.subtract(1.0, c, out=out)


def aligned_empty(*shapes) -> list:
    """Uninitialized float64 arrays of the given shapes, cut from one
    allocation, each starting on an ``_ALIGN``-byte boundary."""
    line = _ALIGN // 8  # floats per cache line
    spans = [-(-math.prod(shape) // line) * line for shape in shapes]
    raw = np.empty(sum(spans) + line - 1)
    starts = itertools.accumulate(spans, initial=-raw.ctypes.data % _ALIGN // 8)
    return [raw[i:i + math.prod(shape)].reshape(shape) for i, shape in zip(starts, shapes)]


def check_separation(q, epsilon: float) -> None:
    """Raise :class:`SingularityError` where ``q`` (scalar or array) is 0.

    That is zero separation at ``epsilon`` = 0; for ``epsilon > 0`` the check
    is one float comparison."""
    if epsilon == 0.0 and np.any(np.equal(q, 0.0)):
        raise SingularityError("coincident points: zero separation with epsilon=0")


def potential_value(z, p: PotentialParams) -> float:
    """Evaluate W(z).  Radial: depends on ``z`` only through its norm."""
    z = _check_vector(z)
    r2 = float(z @ z)
    q = r2 + p.epsilon
    check_separation(q, p.epsilon)
    return pair_value(r2, q, p.s)


def potential_gradient(z, p: PotentialParams) -> np.ndarray:
    """Evaluate grad W(z); a vector parallel to ``z`` and odd in ``z``."""
    z = _check_vector(z)
    r2 = float(z @ z)
    q = r2 + p.epsilon
    check_separation(q, p.epsilon)
    return z * gradient_coef(q, p.s)


def pair_hessian_spectral_bound(p: PotentialParams) -> float:
    """Upper bound on the spectral norm of the pair Hessian, uniform in z.

    Returns ``1 + (s + 3) * eps^(-(s+2)/2)``.  Finite-difference Hessians at
    any separation stay below this value.
    """
    if p.epsilon <= 0:
        raise SingularityError("curvature bound requires epsilon > 0")
    return 1.0 + (p.s + 3.0) * p.epsilon ** (-(p.s + 2.0) / 2.0)

