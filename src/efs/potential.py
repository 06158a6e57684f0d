"""The attractive-repulsive pair potential and its derivatives.

The pair interaction combines a quadratic attraction with a regularized
inverse-power repulsion:

    W(z) = ||z||^2 / 2 + 1 / (s * (||z||^2 + eps)^(s/2))        for s > 0
    W(z) = ||z||^2 / 2 - log(||z||^2 + eps) / 2                 for s = 0

The gradient has the single closed form

    grad W(z) = z * (1 - (||z||^2 + eps)^(-(s+2)/2))

valid for every s >= 0, including the logarithmic branch.  The elementwise
functions :func:`repulsion`, :func:`pair_value` and :func:`gradient_coef` take
the regularized squared distance ``q = ||z||^2 + eps`` and are the one place W
is written; the array code in forward, backward and metrics calls them on
whole blocks of ``q``, and the forward pass has them write into buffers it
reuses from block to block.  W is undefined only at zero separation with
eps = 0; every evaluation, here, in the forward pass and in the backward
gradient and objective, passes its ``q`` to :func:`check_separation`, the one
check for that case.  All functions here are pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError


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
        if not (np.isfinite(self.s) and self.s >= 0):
            raise ValueError(f"s must be finite and >= 0, got {self.s}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


def _check_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("input vector has non-finite components")
    return z


def _power(q, e: float, out=None):
    """``q ** e``; with ``out``, written there by an in-place ``**=``.

    The in-place operator takes the fast paths ``**`` takes (a reciprocal for
    e = -1, a square root for e = 1/2), so both forms give the same bits.
    """
    if out is None:
        return q ** e
    np.copyto(out, q)
    out **= e
    return out


def repulsion(q, s: float, out=None):
    """Repulsive part of W at regularized squared distance ``q``.

    ``-log(q) / 2`` for s = 0, otherwise ``1 / (s * q^(s/2))``; for s > 0 it
    is also the MMD kernel.  Elementwise on arrays; ``out``, when given, is
    an array of ``q``'s shape that receives the result.
    """
    if s == 0:
        return np.multiply(np.log(q, out=out), -0.5, out=out)
    r = _power(q, s / 2.0, out)
    return np.divide(1.0, np.multiply(r, s, out=out), out=out)


def pair_value(sq, q, s: float, out=None):
    """W from the squared distance ``sq`` and its regularization ``q``.

    With ``out`` (not ``sq``), the result is written there.
    """
    return np.add(repulsion(q, s, out), 0.5 * sq, out=out)


def gradient_coef(q, s: float, out=None):
    """The scalar c with grad W(z) = c * z, at ``q = ||z||^2 + eps``.

    With ``out``, the result is written there.
    """
    return np.subtract(1.0, _power(q, -(s + 2.0) / 2.0, out), out=out)


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

