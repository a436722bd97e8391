"""Scalar closed forms of the vacuum/one-photon superposition, in math alone.

The central state is

    |psi> = gamma |0> + beta e^{i phi_rel} |1>,  gamma = sqrt(1 - beta^2) >= 0

with beta = |beta| in [0, 1].  Its generalized quadrature variance is

    V(phi_lo) = 1/4 + beta^2/2 - (1 - beta^2) beta^2 cos^2(phi_rel - phi_lo)

so the X1 (phi_lo = 0) and X2 (phi_lo = pi/2) variances pick out the
cos^2(phi_rel) and sin^2(phi_rel) terms.  The strongest squeezing over all
phases, 3/16 at beta = 1/2, sits about 1.25 dB below the vacuum floor.

The resonant Jaynes-Cummings transient is scalar too: at lam_t = coupling * t

    V(phi_lo) = 1/4 + cos^2(theta/2) sin^2(lam_t) [1/2 - sin^2(theta/2) sin^2(phi + phi_lo)]

for the atom prepared in cos(theta/2)|e> + e^{i phi} sin(theta/2)|g>.

This module imports no numpy, so the commands that need only these forms
start without it.  fock and superposition re-export its names, and
jaynes_cummings re-exports AtomPrep and JCParams.
"""

__all__ = [
    "VACUUM_VARIANCE",
    "SuperpositionSpec",
    "min_variance",
    "quadrature_variances",
    "squeezing_region",
    "superposition_variance",
    "variance_at_lo_phase",
    "variance_to_db",
]

import math
from dataclasses import dataclass

from .errors import InvalidState, NotSupported, _shown, require_finite, require_in, require_int

VACUUM_VARIANCE = 0.25


def variance_to_db(variance: float) -> float:
    """Squeezing level 10 log10(V / 0.25); negative means below vacuum."""
    if not (variance > 0.0):
        raise InvalidState(f"variance must be > 0 to convert to dB, got {_shown(variance)}")
    return 10.0 * math.log10(variance / VACUUM_VARIANCE)


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


def variance_at_lo_phase(spec: SuperpositionSpec, phi_lo: float) -> float:
    """Closed-form Var(X_phi_lo) of the superposition state."""
    require_finite("LO phase", phi_lo)
    b2 = spec.beta_abs**2
    c = math.cos(spec.rel_phase - phi_lo)
    return VACUUM_VARIANCE + b2 / 2.0 - (1.0 - b2) * b2 * c * c


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
    return VACUUM_VARIANCE + b2 * (b2 - 0.5)


def squeezing_region(spec: SuperpositionSpec) -> bool:
    """True iff some LO phase dips strictly below the vacuum floor.

    Strict test with a 1e-12 guard so beta = 0 and beta = 1/sqrt(2)
    (where the minimum exactly touches 1/4) report False.
    """
    return min_variance(spec) < VACUUM_VARIANCE - 1e-12


def _linspace(a: float, b: float, n: int) -> list[float]:
    """np.linspace(a, b, n) for an integer n >= 2, bit for bit: i * step + a, the last point b.

    A step that underflows to 0 takes numpy's other branch, (i / div) * delta + a.
    """
    require_int("n", n, 2)
    div = n - 1
    delta = b - a
    step = delta / div
    if step == 0.0:
        points = [(i / div) * delta + a for i in range(n)]
    else:
        points = [i * step + a for i in range(n)]
    points[-1] = b
    return points


@dataclass(frozen=True)
class AtomPrep:
    """Initial atom state angles: cos(theta/2)|e> + e^{i phi} sin(theta/2)|g>."""

    theta: float
    phi: float

    def __post_init__(self):
        require_in("theta", self.theta, 0, math.tau, open_hi=True)
        require_in("phi", self.phi, 0, math.tau, open_hi=True)


@dataclass(frozen=True)
class JCParams:
    """Angular frequencies of atom (omega0), field (omega) and the coupling rate."""

    omega0: float
    omega: float
    coupling: float

    def __post_init__(self):
        require_in("omega0", self.omega0, 0)
        require_in("omega", self.omega, 0)
        require_in("coupling", self.coupling, 0, open_lo=True)

    @property
    def resonant(self) -> bool:
        return self.omega == self.omega0


def _require_resonant(params: JCParams, t: float = 0.0):
    """Reject detuned parameters and a time t that is not finite and >= 0."""
    if not params.resonant:
        raise NotSupported(
            "only resonant evolution is implemented"
            f" (omega={_shown(params.omega)} != omega0={_shown(params.omega0)})"
        )
    require_in("time", t, 0)


def _resonant_variances(prep: AtomPrep, lam_ts, phi_lo: float) -> list[float]:
    """The scalar closed form Var(X_phi_lo) at each finite lam_t = coupling * t of lam_ts.

    The sine is squared as s * s, not by pow, and the sum is read 1/4 + (c2 sin^2) k:
    the CLI goldens pin those bits.
    """
    c2 = math.cos(prep.theta / 2.0) ** 2
    k = 0.5 - math.sin(prep.theta / 2.0) ** 2 * math.sin(prep.phi + phi_lo) ** 2
    return [VACUUM_VARIANCE + c2 * (s * s) * k for s in map(math.sin, lam_ts)]


def _transient_rows(prep: AtomPrep, params: JCParams, t_max: float, n_steps: int) -> list[tuple]:
    """Rows (t, var_x1, var_x2, db_x1, db_x2) on the grid t = 0 .. t_max of n_steps points."""
    _require_resonant(params)
    require_in("t_max", t_max, 0, open_lo=True)
    require_finite("coupling * t_max", params.coupling * t_max)
    require_int("n_steps", n_steps, 2)
    ts = _linspace(0.0, t_max, n_steps)
    lams = [params.coupling * t for t in ts]
    v1 = _resonant_variances(prep, lams, 0.0)
    v2 = _resonant_variances(prep, lams, math.pi / 2.0)
    return list(zip(ts, v1, v2, map(variance_to_db, v1), map(variance_to_db, v2)))
