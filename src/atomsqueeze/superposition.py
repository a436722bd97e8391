"""Vacuum/one-photon superpositions and squeezed vacuum in the Fock basis.

The central state is gamma |0> + beta e^{i phi_rel} |1>.  Its closed-form
variances live in closed_forms, which needs no numpy; this module
re-exports them beside the Fock-basis states.
"""

__all__ = [
    "SuperpositionSpec",
    "make_superposition",
    "min_variance",
    "optimal_beta",
    "quadrature_variances",
    "superposition_variance",
    "squeezed_vacuum",
    "squeezing_region",
    "variance_at_lo_phase",
]

import math

import numpy as np

from . import fock
from .closed_forms import (
    SuperpositionSpec,
    min_variance,
    quadrature_variances,
    squeezing_region,
    superposition_variance,
    variance_at_lo_phase,
)
from .errors import InvalidParameter, require_in, require_int

XI_MAX = 5.0  # |xi| beyond this is numerically pointless at the truncations used


def make_superposition(spec: SuperpositionSpec) -> fock.FockVector:
    """Fock vector [gamma, beta e^{i phi_rel}]; n_max = 1 is exact here."""
    beta = spec.beta_abs * np.exp(1j * spec.rel_phase)
    return fock.make_fock_vector([spec.gamma, beta])


def optimal_beta() -> tuple[float, float, float]:
    """(beta, variance, dB) of the deepest squeezing over beta and LO phase.

    V = 1/4 + beta^2 (beta^2 - 1/2) at the best LO phase is least at
    beta = 1/2, where V = 3/16.
    """
    return 0.5, 3.0 / 16.0, fock.variance_to_db(3.0 / 16.0)


def squeezed_vacuum(xi: float, n_max: int) -> tuple[fock.FockVector, float]:
    """Truncated squeezed vacuum S(xi)|0>, even Fock levels only.

    c_{2k} = sech(xi)^{1/2} (-tanh(xi)/2)^k sqrt((2k)!) / k!

    Returns the renormalized state and the discarded probability weight
    1 - sum_{n <= n_max} |c_n|^2 of the exact expansion.
    """
    require_in("squeeze parameter xi", xi, -XI_MAX, XI_MAX)
    require_int("n_max", n_max, 4)
    if n_max % 2 != 0:
        raise InvalidParameter(f"n_max must be even, got {n_max}")
    amps = np.zeros(n_max + 1, dtype=complex)
    th = math.tanh(xi)
    for k in range(n_max // 2 + 1):
        # log-gamma form of sqrt((2k)!)/k! stays finite well past the truncations used
        logmag = 0.5 * math.lgamma(2 * k + 1) - math.lgamma(k + 1)
        if k > 0:
            logmag += k * math.log(abs(th) / 2.0) if th != 0.0 else -math.inf
        sign = (-1.0) ** k if th > 0.0 else 1.0
        amps[2 * k] = sign * math.exp(logmag)
    amps *= math.sqrt(1.0 / math.cosh(xi))
    kept = float(np.sum(np.abs(amps) ** 2))
    discarded = max(0.0, 1.0 - kept)
    return fock.make_fock_vector(amps), discarded
