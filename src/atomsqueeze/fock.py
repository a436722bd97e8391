"""Truncated Fock-space states, quadrature statistics, and linear loss.

Conventions used throughout the package:

    X1 = (a + a^dag) / 2,   X2 = i (a^dag - a) / 2,   [X1, X2] = i/2

so the vacuum variance of either quadrature is 1/4.  The generalized
quadrature at local-oscillator phase phi is

    X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2 = X1 cos(phi) + X2 sin(phi)

which gives X_0 = X1 and X_{pi/2} = X2.  Measuring X_phi on rho is the
same as measuring X1 on the number-rotated state
e^{-i phi n} rho e^{+i phi n} (see rotate_phase).

Its mean and variance come from three diagonals of rho, in O(n):

    <a> = sum_n sqrt(n) rho_{n,n-1},  <a^2> = sum_n sqrt(n(n-1)) rho_{n,n-2},
    mean = Re(e^{-i phi} <a>),  V = [1 + 2 <a^dag a> + 2 Re(e^{-2i phi} <a^2>)] / 4 - mean^2

with <a^dag a> = sum_n n rho_{nn}.  No padded level is needed, since
a a^dag = a^dag a + 1 holds exactly in this form; quadrature_operator keeps
the trace Tr(rho X_phi^k) as the test oracle.  Squeezing is always quoted
against the vacuum floor: dB = 10 log10(V / 0.25), negative below it.

Linear loss at transmission eta (a beamsplitter that keeps each photon with
probability eta) is applied in band form, moving weight only down the
diagonals of rho (see apply_loss; Leonhardt, Measuring the Quantum State of
Light, 1997); loss_kraus_operators keeps the Kraus sum as the test oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidState

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
VACUUM_VARIANCE = 0.25


@dataclass(frozen=True)
class FockVector:
    """Pure state |psi> = sum_n c_n |n>, unit norm, truncated at n_max = len - 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidState("FockVector needs a 1-D amplitude array with n_max >= 1")
        norm = np.linalg.norm(amps)
        if not (abs(norm - 1.0) <= 1e-12):
            raise InvalidState(f"FockVector norm {norm!r} is not 1 within 1e-12")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1


@dataclass(frozen=True)
class FockDensity:
    """Density matrix on the truncated Fock space: Hermitian, unit trace, PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise InvalidState("FockDensity needs a square matrix with n_max >= 1")
        # every check is written so that a NaN entry fails it
        if not (np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL):
            raise InvalidState("density matrix is not Hermitian within 1e-12")
        tr = np.trace(rho).real
        if not (abs(tr - 1.0) <= TRACE_TOL):
            raise InvalidState(f"density matrix trace {tr!r} is not 1 within 1e-12")
        # eigvalsh is cheap at the truncations used here: ~1 ms at n_max = 100
        if not (np.min(np.linalg.eigvalsh(rho)) >= PSD_TOL):
            raise InvalidState("density matrix has an eigenvalue below -1e-10")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    @property
    def n_max(self) -> int:
        return self.matrix.shape[0] - 1


@dataclass(frozen=True)
class QuadratureStats:
    """Mean and variance of X_phi for one state at one LO phase."""

    phi_lo: float
    mean: float
    variance: float

    def __post_init__(self):
        if not (self.variance > 0.0):
            raise InvalidState(f"quadrature variance {self.variance!r} must be > 0")


def make_fock_vector(amplitudes) -> FockVector:
    """Normalize raw amplitudes into a FockVector; a bare vacuum [c0] gets an empty |1> slot."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise InvalidState("amplitudes must be a non-empty 1-D array")
    if not np.all(np.isfinite(amps.view(float))):
        raise InvalidState("amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise InvalidState("all-zero amplitude vector has no normalization")
    amps = amps / norm
    if amps.size < 2:
        amps = np.concatenate([amps, [0.0]])
    return FockVector(amps)


def to_density(state: FockVector) -> FockDensity:
    """Pure-state density matrix |psi><psi|."""
    return FockDensity(np.outer(state.amplitudes, state.amplitudes.conj()))


def annihilation_matrix(n_max: int) -> np.ndarray:
    """Matrix of a on the truncated space, a[m, n] = sqrt(n) delta_{m, n-1}; the test oracle."""
    if n_max < 1:
        raise InvalidParameter("annihilation_matrix needs n_max >= 1")
    n = np.arange(1, n_max + 1)
    return np.diag(np.sqrt(n.astype(float)), k=1).astype(complex)


def quadrature_operator(n_max: int, phi_lo: float) -> np.ndarray:
    """X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2; the test oracle of quadrature_stats."""
    a = annihilation_matrix(n_max)
    return (a * np.exp(-1j * phi_lo) + a.conj().T * np.exp(1j * phi_lo)) / 2.0


def rotate_phase(state: FockDensity, phi: float) -> FockDensity:
    """Number-phase rotation e^{-i phi n} rho e^{+i phi n}.

    Maps X_phi statistics of rho onto X1 statistics of the rotated state.
    """
    n = np.arange(state.matrix.shape[0])
    phase = np.exp(-1j * phi * n)
    return FockDensity(state.matrix * np.outer(phase, phase.conj()))


def quadrature_stats(state: FockDensity, phi_lo: float) -> QuadratureStats:
    """Exact mean and variance of X_phi on a truncated density matrix, in O(n_max):

        <a> = sum_n sqrt(n) rho_{n,n-1},  <a^2> = sum_n sqrt(n(n-1)) rho_{n,n-2},
        mean = Re(e^{-i phi} <a>),  V = [1 + 2 sum_n n rho_{nn} + 2 Re(e^{-2i phi} <a^2>)] / 4 - mean^2
    """
    if not math.isfinite(phi_lo):
        raise InvalidState(f"LO phase must be finite, got {phi_lo!r}")
    rho = state.matrix
    n = np.arange(1.0, rho.shape[0])
    a1 = np.dot(np.sqrt(n), np.diagonal(rho, -1))
    a2 = np.dot(np.sqrt(n[1:] * n[:-1]), np.diagonal(rho, -2))
    e = np.exp(-1j * phi_lo)
    mean = float((e * a1).real)
    second = float(0.25 * (1.0 + 2.0 * np.dot(n, np.diagonal(rho)[1:].real) + 2.0 * (e * e * a2).real))
    return QuadratureStats(phi_lo=phi_lo, mean=mean, variance=second - mean * mean)


def variance_to_db(variance: float) -> float:
    """Squeezing level 10 log10(V / 0.25); negative means below vacuum."""
    if not (variance > 0.0):
        raise InvalidState(f"variance must be > 0 to convert to dB, got {variance!r}")
    return 10.0 * math.log10(variance / VACUUM_VARIANCE)


def _loss_weights(n_max: int, eta: float) -> list[np.ndarray]:
    """s_k[m] = sqrt(C(m+k, k) eta^m (1-eta)^k), m = 0 .. n_max-k, for k = 0 .. n_max.

    s_k[m] is the amplitude of losing k photons from |m+k>, left in |m>:
    the entry <m|K_k|m+k> of the Kraus operators and the band weights of
    apply_loss alike.
    """
    if not (0.0 <= eta <= 1.0):
        raise InvalidParameter(f"loss transmission eta must be in [0, 1], got {eta!r}")
    dim = n_max + 1
    # 0.0**0 == 1.0 handles the eta = 0 and eta = 1 endpoints exactly
    return [
        np.sqrt([math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k for n in range(k, dim)])
        for k in range(dim)
    ]


def loss_kraus_operators(n_max: int, eta: float) -> list[np.ndarray]:
    """Kraus operators of the transmission-eta beamsplitter loss channel.

    K_k = sum_{n >= k} sqrt(C(n, k) eta^{n-k} (1-eta)^k) |n-k><n|,
    k = 0 .. n_max photons lost.  apply_loss does not build them: the tests
    keep sum_k K_k rho K_k^dag as the oracle for its band sum.
    """
    return [np.diag(s, k).astype(complex) for k, s in enumerate(_loss_weights(n_max, eta))]


def apply_loss(state: FockDensity, eta: float) -> FockDensity:
    """Pure linear loss at transmission eta, as the band sum

        rho'_{mn} = sum_k s_k[m] s_k[n] rho_{m+k, n+k},
        s_k[m] = sqrt(C(m+k, k) eta^m (1-eta)^k)

    (Leonhardt, Measuring the Quantum State of Light, 1997).  It is the
    Kraus sum sum_k K_k rho K_k^dag term for term, added in the same order,
    so the result is bit-identical to it without the n_max+1 dense
    operators.  Exactly trace preserving on the truncated space; variance
    obeys V' = eta V + (1 - eta)/4 for every state and LO phase.
    """
    rho = state.matrix
    out = np.zeros_like(rho)
    for k, s in enumerate(_loss_weights(state.n_max, eta)):
        out[: s.size, : s.size] += s[:, None] * rho[k:, k:] * s[None, :]
    out = (out + out.conj().T) / 2.0  # scrub float asymmetry, channel is Hermiticity preserving
    return FockDensity(out)
