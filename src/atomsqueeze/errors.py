"""Exception types shared by all atomsqueeze modules."""

__all__ = [
    "AtomSqueezeError",
    "DegenerateData",
    "InvalidParameter",
    "InvalidState",
    "NotSupported",
]


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
