"""Exception hierarchy shared across the package, and the one bound check.

:func:`check_bound` is how every numeric lower bound of the package (the
forward step, the horizon, the potential's exponent and regularizer, the
inner step, the batch size, a draw's integer bound, the enclosure radius,
the CLI's counts) is tested and phrased; rules that are not a plain bound
keep their own code.
"""

import math


class EfsError(Exception):
    """Base class for all errors raised by this package."""


class SingularityError(EfsError):
    """A potential evaluation hit the unregularized singularity at zero separation."""


class InstabilityError(EfsError):
    """An iterative solve produced non-finite iterates (step size too large)."""


class DegenerateEnclosureError(EfsError):
    """All points coincide; no enclosing sphere can be estimated."""


class FormatError(EfsError):
    """A persisted file is malformed or inconsistent."""


def check_bound(name: str, value, low, strict: bool = False, finite: bool = False) -> None:
    """Raise :class:`ValueError` unless ``value >= low`` (``> low`` if ``strict``).

    With ``finite`` the value must also be finite.  A NaN meets no bound.  The
    message is ``"<name> must be [finite and ]>= <low>, got <value>"``, with
    ``>`` under ``strict``.
    """
    if not ((value > low if strict else value >= low) and (not finite or math.isfinite(value))):
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}"
                         f"{'>' if strict else '>='} {low}, got {value}")
