"""Exception types shared by all atomsqueeze modules, and the guards that raise them.

Bad caller input raises InvalidParameter; a state or record that breaks a
physical invariant raises InvalidState.  Each guard fails on NaN and shows
the value as the Python number it equals, so np.float64(nan) reads nan.

Every runtime invariant of a state record (norm, trace, Hermiticity,
positivity, the Wigner bound, a tabulated marginal's floor and mass) is
checked by one guard, require_within, against its entry in TOLERANCES: the
one table of the tolerance each invariant allows and the message it raises.
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


# invariant -> (the largest error it allows, its InvalidState message with a {} per value require_within shows);
# a floor's error is minus the least value, as negation is exact
TOLERANCES = {
    "fock_norm": (1e-12, "FockVector norm {} is not 1 within 1e-12"),
    "density_hermiticity": (1e-12, "density matrix is not Hermitian within 1e-12"),
    "density_trace": (1e-12, "density matrix trace {} is not 1 within 1e-12"),
    "density_least_eigenvalue": (1e-10, "density matrix has an eigenvalue below -1e-10"),
    "joint_norm": (1e-9, "joint state norm {} is not 1 within 1e-9"),  # the RK4 integrator's norm drift
    "mode_norm": (1e-10, "mode L2 norm is {}, not 1 within 1e-10"),
    "wigner_bound": (2.0 / math.pi + 1e-9, "Wigner values are not finite, or exceed the 2/pi bound"),
    "marginal_floor": (1e-12, "marginal density reaches {} < -1e-12"),
    "marginal_mass": (1e-6, "marginal mass on [{}, {}] is {}, not 1"),
}


def require_within(invariant: str, error, *shown) -> None:
    """Raise InvalidState unless error <= the invariant's tolerance; NaN fails.

    The message is formatted only on failure, with each of `shown` as _shown gives it.
    """
    tol, message = TOLERANCES[invariant]
    if not error <= tol:
        raise InvalidState(message.format(*map(_shown, shown)))


def require_finite(name: str, value) -> None:
    """Raise InvalidParameter unless value is finite."""
    if not math.isfinite(value):
        raise InvalidParameter(f"{name} must be finite, got {_shown(value)}")


def require_in(name: str, value, lo, hi=math.inf, *, open_lo: bool = False, open_hi: bool = False) -> None:
    """Raise InvalidParameter unless lo <= value <= hi, an open end excluded; an
    infinite hi is always excluded, and the message reads "finite and > lo"."""
    above = lo < value if open_lo else lo <= value
    if not (above and (value < hi if open_hi or hi == math.inf else value <= hi)):
        domain = _interval(lo, hi, open_lo=open_lo, open_hi=open_hi)
        raise InvalidParameter(f"{name} must be {domain}, got {_shown(value)}")


def _interval(lo, hi=math.inf, *, open_lo: bool = False, open_hi: bool = False) -> str:
    """require_in's domain in the words of its message, as --help shows it too."""
    if hi == math.inf:
        return f"finite and {'>' if open_lo else '>='} {lo!r}"
    return f"in {'(' if open_lo else '['}{lo!r}, {hi!r}{')' if open_hi else ']'}"


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidParameter unless value is an int or numpy integer >= least; a bool or float fails.

    numpy registers its integers as numbers.Integral, so no numpy import is needed to accept them.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not value >= least:
        raise InvalidParameter(f"{name} must be an integer >= {least}, got {_shown(value)}")
