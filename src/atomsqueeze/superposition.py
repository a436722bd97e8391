"""Vacuum/one-photon superpositions and squeezed vacuum in the Fock basis.

The central state is

    |psi> = gamma |0> + beta e^{i phi_rel} |1>,  gamma = sqrt(1 - beta^2) >= 0

with beta = |beta| in [0, 1].  Its generalized quadrature variance is

    V(phi_lo) = 1/4 + beta^2/2 - (1 - beta^2) beta^2 cos^2(phi_rel - phi_lo)

so the X1 (phi_lo = 0) and X2 (phi_lo = pi/2) variances pick out the
cos^2(phi_rel) and sin^2(phi_rel) terms.  The strongest squeezing over all
phases, 3/16 at beta = 1/2, sits about 1.25 dB below the vacuum floor.
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
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import InvalidParameter, InvalidState, require_finite, require_in, require_int

XI_MAX = 5.0  # |xi| beyond this is numerically pointless at the truncations used


@dataclass(frozen=True)
class SuperpositionSpec:
    """Parameters (|beta|, phi_rel) of gamma|0> + beta e^{i phi_rel}|1>."""

    beta_abs: float
    rel_phase: float

    def __post_init__(self):
        require_in("|beta|", self.beta_abs, 0, 1)
        require_finite("rel_phase", self.rel_phase)

    @property
    def gamma(self) -> float:
        """Real, non-negative vacuum amplitude sqrt(1 - |beta|^2)."""
        return math.sqrt(max(0.0, 1.0 - self.beta_abs**2))


def make_superposition(spec: SuperpositionSpec) -> fock.FockVector:
    """Fock vector [gamma, beta e^{i phi_rel}]; n_max = 1 is exact here."""
    beta = spec.beta_abs * np.exp(1j * spec.rel_phase)
    return fock.make_fock_vector([spec.gamma, beta])


def variance_at_lo_phase(spec: SuperpositionSpec, phi_lo: float) -> float:
    """Closed-form Var(X_phi_lo) of the superposition state."""
    require_finite("LO phase", phi_lo)
    b2 = spec.beta_abs**2
    c = math.cos(spec.rel_phase - phi_lo)
    return fock.VACUUM_VARIANCE + b2 / 2.0 - (1.0 - b2) * b2 * c * c


def superposition_variance(spec: SuperpositionSpec, quadrature_index: int) -> float:
    """Closed-form variance of X1 (index 1) or X2 (index 2).

    Reduces to 1/4 + |beta|^2 (|beta|^2 - 1/2) at phi_rel in {0, pi} for X1
    and {pi/2, 3pi/2} for X2.
    """
    require_int("quadrature_index", quadrature_index, 1)
    require_in("quadrature_index", quadrature_index, 1, 2)
    return variance_at_lo_phase(spec, 0.0 if quadrature_index == 1 else math.pi / 2.0)


def quadrature_variances(spec: SuperpositionSpec) -> tuple[float, float]:
    """(Var X1, Var X2) closed forms."""
    return superposition_variance(spec, 1), superposition_variance(spec, 2)


def min_variance(spec: SuperpositionSpec) -> float:
    """Variance at the optimal LO phase: 1/4 + beta^2 (beta^2 - 1/2)."""
    b2 = spec.beta_abs**2
    return fock.VACUUM_VARIANCE + b2 * (b2 - 0.5)


def squeezing_region(spec: SuperpositionSpec) -> bool:
    """True iff some LO phase dips strictly below the vacuum floor.

    Strict test with a 1e-12 guard so beta = 0 and beta = 1/sqrt(2)
    (where the minimum exactly touches 1/4) report False.
    """
    return min_variance(spec) < fock.VACUUM_VARIANCE - 1e-12


def optimal_beta(n_scan: int = 10_000) -> tuple[float, float, float]:
    """(beta, variance, dB) of the deepest squeezing over beta and LO phase.

    Analytic optimum beta = 1/2, V = 3/16; a 1-D grid scan over beta
    cross-checks the analytic minimum to grid resolution.
    """
    require_int("n_scan", n_scan, 100)
    beta_opt, v_opt = 0.5, 3.0 / 16.0
    betas = np.linspace(0.0, 1.0, n_scan)
    b2 = betas**2
    v_scan = fock.VACUUM_VARIANCE + b2 * (b2 - 0.5)
    i = int(np.argmin(v_scan))
    step = float(betas[1] - betas[0])
    if abs(float(betas[i]) - beta_opt) > step or abs(float(v_scan[i]) - v_opt) > step:
        raise InvalidState("grid scan disagrees with the analytic optimum")
    return beta_opt, v_opt, fock.variance_to_db(v_opt)


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
