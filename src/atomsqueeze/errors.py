"""Exception types shared by all atomsqueeze modules, and the guards that raise them.

Bad caller input raises InvalidParameter; a state or record that breaks a
physical invariant raises InvalidState.  Each guard fails on NaN and shows
the value as the Python number it equals, so np.float64(nan) reads nan.
"""

__all__ = [
    "AtomSqueezeError",
    "DegenerateData",
    "InvalidParameter",
    "InvalidState",
    "NotSupported",
]

import math
import numbers
import sys


class AtomSqueezeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(AtomSqueezeError):
    """A parameter lies outside its documented domain."""


class InvalidState(AtomSqueezeError):
    """A state object violates a physical invariant (norm, Hermiticity, positivity)."""


class NotSupported(AtomSqueezeError):
    """The requested regime is deliberately out of scope."""


class DegenerateData(AtomSqueezeError):
    """Sample data carries no information for the requested estimate."""


def _shown(value) -> str:
    # a numpy scalar can only exist once numpy is loaded, so a closed-form run never imports it
    np = sys.modules.get("numpy")
    return repr(value.item() if np is not None and isinstance(value, np.generic) else value)


def require_finite(name: str, value) -> None:
    """Raise InvalidParameter unless value is finite."""
    if not math.isfinite(value):
        raise InvalidParameter(f"{name} must be finite, got {_shown(value)}")


def require_in(name: str, value, lo, hi=math.inf, *, open_lo: bool = False, open_hi: bool = False) -> None:
    """Raise InvalidParameter unless lo <= value <= hi, an open end excluded; an
    infinite hi is always excluded, and the message reads "finite and > lo"."""
    above = lo < value if open_lo else lo <= value
    if not (above and (value < hi if open_hi or hi == math.inf else value <= hi)):
        domain = (f"finite and {'>' if open_lo else '>='} {lo!r}" if hi == math.inf
                  else f"in {'(' if open_lo else '['}{lo!r}, {hi!r}{')' if open_hi else ']'}")
        raise InvalidParameter(f"{name} must be {domain}, got {_shown(value)}")


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidParameter unless value is an int or numpy integer >= least; a bool or float fails.

    numpy registers its integers as numbers.Integral, so no numpy import is needed to accept them.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not value >= least:
        raise InvalidParameter(f"{name} must be an integer >= {least}, got {_shown(value)}")
