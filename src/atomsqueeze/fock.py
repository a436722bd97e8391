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
a a^dag = a^dag a + 1 holds exactly in this form; the tests keep the trace
Tr(rho X_phi^k) as its oracle (tests/oracles.py).  Squeezing is always quoted
against the vacuum floor: dB = 10 log10(V / 0.25), negative below it
(variance_to_db, re-exported from the numpy-free closed_forms).

Linear loss at transmission eta (a beamsplitter that keeps each photon with
probability eta) is applied in band form, moving weight only down the
diagonals of rho (see apply_loss; Leonhardt, Measuring the Quantum State of
Light, 1997); the tests keep the Kraus sum as its oracle.
"""

__all__ = [
    "FockDensity",
    "FockVector",
    "QuadratureStats",
    "apply_loss",
    "make_fock_vector",
    "quadrature_stats",
    "rotate_phase",
    "to_density",
    "variance_to_db",
]

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import VACUUM_VARIANCE, variance_to_db
from .errors import InvalidParameter, InvalidState, require_finite, require_in, require_within


@dataclass(frozen=True)
class FockVector:
    """Pure state |psi> = sum_n c_n |n>, unit norm, truncated at n_max = len - 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _numbers(self.amplitudes, "amplitudes", InvalidState, complex)
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidState("FockVector needs a 1-D amplitude array with n_max >= 1")
        norm = np.linalg.norm(amps)
        require_within("fock_norm", abs(norm - 1.0), norm)
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
        require_within("density_hermiticity", np.max(np.abs(rho - rho.conj().T)))
        tr = np.trace(rho).real
        require_within("density_trace", abs(tr - 1.0), tr)
        # eigvalsh is cheap at the truncations used here: ~1 ms at n_max = 100
        require_within("density_least_eigenvalue", -np.min(np.linalg.eigvalsh(rho)))
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
    kept = [eta**j for j in range(dim)]
    lost = [(1.0 - eta) ** k for k in range(dim)]
    return [np.sqrt([math.comb(n, k) * kept[n - k] * lost[k] for n in range(k, dim)]) for k in range(dim)]


def apply_loss(state: FockDensity, eta: float) -> FockDensity:
    """Pure linear loss at transmission eta, as the band sum

        rho'_{mn} = sum_k s_k[m] s_k[n] rho_{m+k, n+k},
        s_k[m] = sqrt(C(m+k, k) eta^m (1-eta)^k)

    (Leonhardt, Measuring the Quantum State of Light, 1997).  It is the
    Kraus sum sum_k K_k rho K_k^dag term for term, added in the same order,
    so the result is bit-identical to it without the n_max+1 dense
    operators.  A real rho (every squeezed vacuum, lossy or not) is summed
    in float64: the complex products' imaginary parts would all be +-0 and
    out starts at +0, so the bits are those of the complex sum.  Exactly
    trace preserving on the truncated space; variance obeys
    V' = eta V + (1 - eta)/4 for every state and LO phase.
    """
    rho = state.matrix
    if not rho.imag.any():
        rho = rho.real
    out = np.zeros_like(rho)
    for k, s in enumerate(_loss_weights(state.n_max, eta)):
        out[: s.size, : s.size] += s[:, None] * rho[k:, k:] * s[None, :]
    out = out.astype(complex, copy=False)
    out = (out + out.conj().T) / 2.0  # scrub float asymmetry, channel is Hermiticity preserving
    return FockDensity(out)
