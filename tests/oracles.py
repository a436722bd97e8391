"""Numerical cross-checks of the package's closed forms and band sums.

The runtime package computes each quantity once, in closed form or as a
band sum.  These are the longhand paths the tests compare it against: the
ladder and quadrature operators as dense matrices (the trace Tr(rho X_phi^k)
for quadrature_stats), the Kraus operators of the loss channel (their sum
sum_k K_k rho K_k^dag for apply_loss), and the joint Jaynes-Cummings
Hamiltonian with its fixed-step RK4 integrator and the reduced field
density (for evolve_resonant and the closed-form variances).  Each guards
its inputs as the package's own functions do, so an oracle and the kernel
it checks reject the same values.
"""

import math

import numpy as np

from atomsqueeze import fock
from atomsqueeze.closed_forms import AtomPrep, JCParams, _require_resonant
from atomsqueeze.errors import require_finite, require_in, require_int
from atomsqueeze.fock import _loss_weights
from atomsqueeze.jaynes_cummings import JointAtomFieldState, _rotating_joint

NUMERIC_N_MAX = 4  # field truncation for the integrator; exact support is n <= 1
MAX_STABLE_DT = 0.01  # in units of 1/coupling
MAX_RK4_STEPS = 1_000_000  # round-off ~1e-16 per step stays 10x inside the 1e-9 norm check


# ------------------------------------------------------------------ fock

def annihilation_matrix(n_max: int) -> np.ndarray:
    """Matrix of a on the truncated space, a[m, n] = sqrt(n) delta_{m, n-1}; the test oracle."""
    require_int("n_max", n_max, 1)
    n = np.arange(1, n_max + 1)
    return np.diag(np.sqrt(n.astype(float)), k=1).astype(complex)


def quadrature_operator(n_max: int, phi_lo: float) -> np.ndarray:
    """X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2; the test oracle of quadrature_stats."""
    require_finite("LO phase", phi_lo)  # as quadrature_stats, so the oracle and its kernel agree
    a = annihilation_matrix(n_max)
    return (a * np.exp(-1j * phi_lo) + a.conj().T * np.exp(1j * phi_lo)) / 2.0


def loss_kraus_operators(n_max: int, eta: float) -> list[np.ndarray]:
    """Kraus operators of the transmission-eta beamsplitter loss channel.

    K_k = sum_{n >= k} sqrt(C(n, k) eta^{n-k} (1-eta)^k) |n-k><n|,
    k = 0 .. n_max photons lost.  apply_loss does not build them: the tests
    keep sum_k K_k rho K_k^dag as the oracle for its band sum.
    """
    require_int("n_max", n_max, 1)
    return [np.diag(s, k).astype(complex) for k, s in enumerate(_loss_weights(n_max, eta))]


# ------------------------------------------------------------ jaynes_cummings

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


def field_variances(prep: AtomPrep, params: JCParams, t: float) -> tuple[float, float]:
    """(Var X1, Var X2) in the rotating frame via the reduced density matrix (closed-form cross-check)."""
    _require_resonant(params, t)
    rho = reduced_field_density(_rotating_joint(prep, params.coupling * t))
    v1 = fock.quadrature_stats(rho, 0.0).variance
    v2 = fock.quadrature_stats(rho, math.pi / 2.0).variance
    return v1, v2
