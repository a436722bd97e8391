"""Resonant single-atom/single-mode dynamics and the emitted-field variances.

Hamiltonian (hbar = 1):

    H = (omega0/2) sigma_z + omega a^dag a + coupling (a^dag sigma_- + sigma_+ a)

restricted to the resonant case omega = omega0.  The atom starts in
cos(theta/2)|e> + e^{i phi} sin(theta/2)|g> with the field in vacuum, so the
closed solution lives in the span of {|e,0>, |g,0>, |g,1>}:

    amp(e,0) = cos(theta/2) cos(coupling t) e^{-i omega t}
    amp(g,0) = e^{i phi} sin(theta/2)
    amp(g,1) = -i cos(theta/2) sin(coupling t) e^{-i omega t}

with the energy origin placed at |g,0>.  Field quadrature statistics are
quoted in the frame rotating at omega (the e^{-i omega t} factors drop),
where the closed forms

    V1 = 1/4 + cos^2(theta/2) sin^2(coupling t) [1/2 - sin^2(theta/2) sin^2(phi)]
    V2 = 1/4 + cos^2(theta/2) sin^2(coupling t) [1/2 - sin^2(theta/2) cos^2(phi)]

hold; the generalized LO phase replaces sin^2(phi) by sin^2(phi + phi_lo).
At coupling*t = pi/2 the atom decouples and the field is left in a pure
vacuum/one-photon superposition (see field_superposition_at_quarter_period).
"""

__all__ = [
    "AtomPrep",
    "DipoleCheck",
    "JCParams",
    "JointAtomFieldState",
    "closed_form_variances",
    "dipole_squeezing_check",
    "evolve_resonant",
    "field_variances",
    "min_field_variance",
    "numeric_evolve",
    "reduced_field_density",
    "transient_sweep",
]

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .closed_forms import AtomPrep, JCParams, SuperpositionSpec, _require_resonant, _resonant_variances, _transient_rows
from .errors import InvalidParameter, InvalidState, _shown, require_finite, require_in, require_int

NUMERIC_N_MAX = 4  # field truncation for the integrator; exact support is n <= 1
MAX_STABLE_DT = 0.01  # in units of 1/coupling
MAX_RK4_STEPS = 1_000_000  # round-off ~1e-16 per step stays 10x inside the 1e-9 norm check
PREDICTION_GUARD = 1e-15  # a predicted dip below round-off is not a prediction


@dataclass(frozen=True)
class JointAtomFieldState:
    """Joint pure state: amp_e[n], amp_g[n] over Fock levels n = 0 .. n_max."""

    amp_e: np.ndarray
    amp_g: np.ndarray

    def __post_init__(self):
        e = fock._numbers(self.amp_e, "amp_e", InvalidState, complex)
        g = fock._numbers(self.amp_g, "amp_g", InvalidState, complex)
        if e.ndim != 1 or e.shape != g.shape or e.size < 2:
            raise InvalidState("amp_e and amp_g must be equal-length 1-D arrays, n_max >= 1")
        norm = math.sqrt(float(np.sum(np.abs(e) ** 2) + np.sum(np.abs(g) ** 2)))
        # loosest producer is the numeric integrator (norm drift <= 1e-9)
        if not (abs(norm - 1.0) <= 1e-9):
            raise InvalidState(f"joint state norm {norm!r} is not 1 within 1e-9")
        fock._freeze(self, amp_e=e, amp_g=g)

    @property
    def n_max(self) -> int:
        return self.amp_e.size - 1


@dataclass(frozen=True)
class DipoleCheck:
    """Atomic-dipole squeezing criterion evaluated on the prepared atom."""

    commutator_expectation: float
    normally_ordered_var_d1: float

    def __post_init__(self):
        if not (math.isfinite(self.commutator_expectation) and math.isfinite(self.normally_ordered_var_d1)):
            raise InvalidState(
                "dipole criterion figures must be finite, got"
                f" {_shown(self.commutator_expectation)} and {_shown(self.normally_ordered_var_d1)}"
            )

    @property
    def field_squeezing_predicted(self) -> bool:
        return self.commutator_expectation < -PREDICTION_GUARD and self.normally_ordered_var_d1 < -PREDICTION_GUARD


def evolve_resonant(prep: AtomPrep, params: JCParams, t: float) -> JointAtomFieldState:
    """Closed-form resonant evolution from the vacuum-field start, n_max = 1."""
    _require_resonant(params, t)
    return _rotating_joint(prep, params.coupling * t, np.exp(-1j * params.omega * t))


def jc_hamiltonian(params: JCParams, n_max: int) -> np.ndarray:
    """Joint Hamiltonian matrix, basis ordered [e;n] then [g;n], n = 0 .. n_max."""
    require_int("n_max", n_max, 1)
    dim = n_max + 1
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    n = np.arange(dim)
    h[:dim, :dim] = np.diag(params.omega * n + params.omega0 / 2.0)
    h[dim:, dim:] = np.diag(params.omega * n - params.omega0 / 2.0)
    k = n[:-1]  # coupling block: |g,n+1> <-> |e,n>
    h[dim + k + 1, k] = h[k, dim + k + 1] = params.coupling * np.sqrt(k + 1.0)
    return h


def numeric_evolve(prep: AtomPrep, params: JCParams, t: float, dt: float) -> JointAtomFieldState:
    """Fixed-step RK4 integration of the joint Schroedinger equation.

    Truncates the field at n_max = 4 (the exact solution never leaves
    n <= 1, so the headroom only has to hold round-off).  The result is
    gauged by e^{-i omega t / 2} to place the energy origin at |g,0>,
    matching evolve_resonant.
    """
    _require_resonant(params, t)
    require_in("dt", dt, 0, MAX_STABLE_DT / params.coupling, open_lo=True)
    require_in("the number of RK4 steps t / dt", t / dt, 0, MAX_RK4_STEPS)  # an overflowed inf fails it
    n_steps = max(1, math.ceil(t / dt))
    dim = NUMERIC_N_MAX + 1
    psi = np.zeros(2 * dim, dtype=complex)
    psi[0] = math.cos(prep.theta / 2.0)
    psi[dim] = math.sin(prep.theta / 2.0) * np.exp(1j * prep.phi)
    # one RK4 step of psi' = -iH psi is psi -> T psi, T = I + a + a^2/2 + a^3/6 + a^4/24, a = -iH t / n_steps
    a = (-1j * (t / n_steps)) * jc_hamiltonian(params, NUMERIC_N_MAX)
    eye = np.eye(2 * dim)
    rk4_step = eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
    for _ in range(n_steps):
        psi = rk4_step @ psi
    psi = psi * np.exp(-1j * params.omega * t / 2.0)
    return JointAtomFieldState(amp_e=psi[:dim], amp_g=psi[dim:])


def reduced_field_density(state: JointAtomFieldState) -> fock.FockDensity:
    """Trace out the atom: rho_f = amp_e amp_e^dag + amp_g amp_g^dag."""
    rho = np.outer(state.amp_e, state.amp_e.conj()) + np.outer(state.amp_g, state.amp_g.conj())
    rho = (rho + rho.conj().T) / 2.0
    return fock.FockDensity(rho)


def _rotating_joint(prep: AtomPrep, lam_t: float, frame: complex = 1.0) -> JointAtomFieldState:
    """Closed-form joint state at lam_t = coupling * t; frame = e^{-i omega t} leaves the rotating frame."""
    c = math.cos(prep.theta / 2.0)
    s = math.sin(prep.theta / 2.0)
    amp_e = np.array([c * math.cos(lam_t) * frame, 0.0j])
    amp_g = np.array([s * np.exp(1j * prep.phi), -1j * c * math.sin(lam_t) * frame])
    return JointAtomFieldState(amp_e=amp_e, amp_g=amp_g)


def field_variances(prep: AtomPrep, params: JCParams, t: float) -> tuple[float, float]:
    """(Var X1, Var X2) in the rotating frame via the reduced density matrix (closed-form cross-check)."""
    _require_resonant(params, t)
    rho = reduced_field_density(_rotating_joint(prep, params.coupling * t))
    v1 = fock.quadrature_stats(rho, 0.0).variance
    v2 = fock.quadrature_stats(rho, math.pi / 2.0).variance
    return v1, v2


def closed_form_variance_at(prep: AtomPrep, lam_t, phi_lo: float):
    """Var(X_phi_lo) closed form at lam_t = coupling * t; broadcasts over an array lam_t.

    A complex, str or object lam_t raises InvalidParameter.
    """
    # a float (np.float64 included) skips the dtype check and np.ndim, which cost ~1 us per call
    scalar = isinstance(lam_t, float)
    if not scalar:
        lam_t = fock._numbers(lam_t, "lam_t = coupling * t")
        scalar = lam_t.ndim == 0
    # checked first: math.sin(inf) raises ValueError, and NaN would pass through
    if not (math.isfinite(lam_t) if scalar else np.isfinite(lam_t).all()):
        raise InvalidParameter("lam_t = coupling * t must be finite everywhere")
    require_finite("LO phase", phi_lo)
    if scalar:
        return _resonant_variances(prep, (lam_t,), phi_lo)[0]
    return np.reshape(_resonant_variances(prep, lam_t.ravel().tolist(), phi_lo), lam_t.shape)


def closed_form_variances(prep: AtomPrep, lam_t) -> tuple:
    """(Var X1, Var X2) closed forms at dimensionless time lam_t (scalar or array)."""
    return (
        closed_form_variance_at(prep, lam_t, 0.0),
        closed_form_variance_at(prep, lam_t, math.pi / 2.0),
    )


def min_field_variance(prep: AtomPrep) -> float:
    """Minimum of Var(X_phi_lo) over both the interaction time and the LO phase.

    The time factor sin^2(coupling t) peaks at 1 and the LO factor
    sin^2(phi + phi_lo) sweeps [0, 1], so the minimum is
    1/4 + cos^2(theta/2) * min(0, 1/2 - sin^2(theta/2)).
    """
    c2 = math.cos(prep.theta / 2.0) ** 2
    s2 = math.sin(prep.theta / 2.0) ** 2
    return fock.VACUUM_VARIANCE + c2 * min(0.0, 0.5 - s2)


def dipole_squeezing_check(prep: AtomPrep) -> DipoleCheck:
    """Evaluate the atomic-dipole criterion on the prepared atom.

    With the dipole lowering operator D = |g><e| and D1 = (D + D^dag)/2:

        <[D^dag, D]> = cos(theta)
        :(Delta D1)^2: = cos^2(theta/2)/2 - sin^2(theta/2) cos^2(theta/2) cos^2(phi)

    Squeezing is predicted when both quantities are strictly negative, with
    a round-off guard so boundary preparations (theta at the poles or the
    equator up to float error) report False rather than predicting a dip far
    below what a double can resolve against 1/4.  A negative commutator
    expectation means the preparation is ground-state weighted
    (sin^2(theta/2) > 1/2); on top of that a negative normal-ordered dipole
    variance transfers to a field quadrature dipping below the vacuum floor
    at some interaction time.  The second condition implies the first, so
    requiring both is a redundancy kept for clarity of the report.
    """
    c2 = math.cos(prep.theta / 2.0) ** 2
    s2 = math.sin(prep.theta / 2.0) ** 2
    commutator = c2 - s2
    nvar = c2 / 2.0 - s2 * c2 * math.cos(prep.phi) ** 2
    return DipoleCheck(commutator, nvar)


def field_superposition_at_quarter_period(prep: AtomPrep) -> tuple[SuperpositionSpec, float]:
    """Pure field state left behind at coupling*t = pi/2.

    The atom factors out in |g> and the field is, up to the global phase
    e^{i global_phase} returned alongside,

        sin(theta/2)|0> + |cos(theta/2)| e^{i rel_phase}|1>,
        rel_phase = -phi - pi/2 (+ pi when cos(theta/2) < 0), mod 2*pi.
    """
    c = math.cos(prep.theta / 2.0)
    rel = -prep.phi - math.pi / 2.0 + (math.pi if c < 0.0 else 0.0)
    rel %= 2.0 * math.pi
    return SuperpositionSpec(beta_abs=abs(c), rel_phase=rel), prep.phi


def transient_sweep(prep: AtomPrep, params: JCParams, t_max: float, n_steps: int) -> np.ndarray:
    """Variance transient on the uniform grid t = 0 .. t_max (n_steps points).

    Returns rows (t, var_x1, var_x2, db_x1, db_x2), the plain rows of the
    numpy-free closed_forms core as an array.  The reduced density matrix
    path (field_variances) and the RK4 integrator are cross-checks kept in
    the tests.
    """
    return np.array(_transient_rows(prep, params, t_max, n_steps))
