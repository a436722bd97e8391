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
against the vacuum floor: dB = 10 log10(V / 0.25), negative below it
(variance_to_db, re-exported from the numpy-free closed_forms).

Linear loss at transmission eta (a beamsplitter that keeps each photon with
probability eta) is applied in band form, moving weight only down the
diagonals of rho (see apply_loss; Leonhardt, Measuring the Quantum State of
Light, 1997); loss_kraus_operators keeps the Kraus sum as the test oracle.
"""

__all__ = [
    "FockDensity",
    "FockVector",
    "QuadratureStats",
    "annihilation_matrix",
    "apply_loss",
    "make_fock_vector",
    "quadrature_operator",
    "quadrature_stats",
    "rotate_phase",
    "to_density",
    "variance_to_db",
]

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import VACUUM_VARIANCE, variance_to_db
from .errors import InvalidParameter, InvalidState, require_finite, require_in, require_int

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


@dataclass(frozen=True)
class FockVector:
    """Pure state |psi> = sum_n c_n |n>, unit norm, truncated at n_max = len - 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _numbers(self.amplitudes, "amplitudes", InvalidState, complex)
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidState("FockVector needs a 1-D amplitude array with n_max >= 1")
        norm = np.linalg.norm(amps)
        if not (abs(norm - 1.0) <= 1e-12):
            raise InvalidState(f"FockVector norm {float(norm)!r} is not 1 within 1e-12")
        _freeze(self, amplitudes=amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1


@dataclass(frozen=True)
class FockDensity:
    """Density matrix on the truncated Fock space: Hermitian, unit trace, PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = _numbers(self.matrix, "matrix", InvalidState, complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise InvalidState("FockDensity needs a square matrix with n_max >= 1")
        # every check is written so that a NaN entry fails it
        if not (np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL):
            raise InvalidState("density matrix is not Hermitian within 1e-12")
        tr = np.trace(rho).real
        if not (abs(tr - 1.0) <= TRACE_TOL):
            raise InvalidState(f"density matrix trace {float(tr)!r} is not 1 within 1e-12")
        # eigvalsh is cheap at the truncations used here: ~1 ms at n_max = 100
        if not (np.min(np.linalg.eigvalsh(rho)) >= PSD_TOL):
            raise InvalidState("density matrix has an eigenvalue below -1e-10")
        _freeze(self, matrix=rho)

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
        if not (math.isfinite(self.phi_lo) and math.isfinite(self.mean)):
            raise InvalidState(
                f"quadrature phase {float(self.phi_lo)!r} and mean {float(self.mean)!r} must be finite"
            )
        if not (0.0 < self.variance < math.inf):
            raise InvalidState(f"quadrature variance {float(self.variance)!r} must be finite and > 0")


def _numbers(values, name: str, error: type = InvalidParameter, dtype: type = float) -> np.ndarray:
    """values as a `dtype` (float or complex) array of their own shape: the one
    rule by which the package admits an array.  A ragged nesting raises
    `error`, and so does a dtype that is not bool, integer or float (or
    complex, for dtype=complex), before any cast: no string is parsed and no
    imaginary part dropped.  Input already of `dtype` is returned as it is,
    with its bits and without a copy."""
    try:
        x = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise error(f"{name} must be a regular array of numbers") from None
    if x.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise error(f"{name} must be {'numbers' if dtype is complex else 'real numbers'}, got dtype {x.dtype}")
    return x.astype(dtype, copy=False)


def _freeze(record, **arrays: np.ndarray) -> None:
    """Make each array read-only and store it as the field of that name on the frozen dataclass record.

    An array that _numbers admitted without a copy is the caller's own, so
    a record built from it leaves the caller's array read-only too.  Call
    this after every check: a construction that fails leaves the caller's
    array writable.
    """
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def make_fock_vector(amplitudes) -> FockVector:
    """Normalize raw amplitudes into a FockVector; a bare vacuum [c0] gets an empty |1> slot."""
    amps = _numbers(amplitudes, "amplitudes", InvalidState, complex)
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
    require_int("n_max", n_max, 1)
    n = np.arange(1, n_max + 1)
    return np.diag(np.sqrt(n.astype(float)), k=1).astype(complex)


def quadrature_operator(n_max: int, phi_lo: float) -> np.ndarray:
    """X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2; the test oracle of quadrature_stats."""
    require_finite("LO phase", phi_lo)  # as quadrature_stats, so the oracle and its kernel agree
    a = annihilation_matrix(n_max)
    return (a * np.exp(-1j * phi_lo) + a.conj().T * np.exp(1j * phi_lo)) / 2.0


def _rotated(rho: np.ndarray, phi: float) -> np.ndarray:
    """e^{-i phi n} rho e^{+i phi n} as a bare matrix, for kernels that only read it."""
    require_finite("rotation phase", phi)
    phase = np.exp(-1j * phi * np.arange(rho.shape[0]))
    return rho * np.outer(phase, phase.conj())


def rotate_phase(state: FockDensity, phi: float) -> FockDensity:
    """Number-phase rotation e^{-i phi n} rho e^{+i phi n}.

    Maps X_phi statistics of rho onto X1 statistics of the rotated state.
    """
    return FockDensity(_rotated(state.matrix, phi))


def quadrature_stats(state: FockDensity, phi_lo: float) -> QuadratureStats:
    """Exact mean and variance of X_phi on a truncated density matrix, in O(n_max):

        <a> = sum_n sqrt(n) rho_{n,n-1},  <a^2> = sum_n sqrt(n(n-1)) rho_{n,n-2},
        mean = Re(e^{-i phi} <a>),  V = [1 + 2 sum_n n rho_{nn} + 2 Re(e^{-2i phi} <a^2>)] / 4 - mean^2
    """
    require_finite("LO phase", phi_lo)
    rho = state.matrix
    n = np.arange(1.0, rho.shape[0])
    a1 = np.dot(np.sqrt(n), np.diagonal(rho, -1))
    a2 = np.dot(np.sqrt(n[1:] * n[:-1]), np.diagonal(rho, -2))
    e = np.exp(-1j * phi_lo)
    mean = float((e * a1).real)
    second = float(0.25 * (1.0 + 2.0 * np.dot(n, np.diagonal(rho)[1:].real) + 2.0 * (e * e * a2).real))
    return QuadratureStats(phi_lo=phi_lo, mean=mean, variance=second - mean * mean)


def _loss_weights(n_max: int, eta: float) -> list[np.ndarray]:
    """s_k[m] = sqrt(C(m+k, k) eta^m (1-eta)^k), m = 0 .. n_max-k, for k = 0 .. n_max.

    s_k[m] is the amplitude of losing k photons from |m+k>, left in |m>:
    the entry <m|K_k|m+k> of the Kraus operators and the band weights of
    apply_loss alike.
    """
    require_in("loss transmission eta", eta, 0, 1)
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
    require_int("n_max", n_max, 1)
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
