"""Homodyne sampling: quadrature marginals, inverse-CDF Monte Carlo, estimators.

The marginal of X_phi for a truncated density matrix is

    p(x) = sum_{mn} rho~_{mn} psi_m(x) psi_n(x),
    rho~ = e^{-i phi n} rho e^{+i phi n}

with the oscillator eigenfunctions in these units (vacuum variance 1/4)

    psi_0(x) = (2/pi)^{1/4} e^{-x^2},
    psi_n(x) = (2x/sqrt(n)) psi_{n-1}(x) - sqrt((n-1)/n) psi_{n-2}(x).

Sampling inverts a trapezoid-tabulated CDF on a fixed 2^16-point grid over
[-6, 6]; for the n_max <= 10 states used here the tail mass outside and the
interpolation error are both far below 1e-9.  Randomness comes from numpy's
counter-based Philox generator so sample streams are reproducible across
platforms for a given seed; substreams for multi-phase scans are spawned
through SeedSequence.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import DegenerateData, InvalidParameter, InvalidState

GENERATOR_ID = "numpy-philox4x64"
CDF_POINTS = 2**16
CDF_SUPPORT = (-6.0, 6.0)
DENSITY_FLOOR = -1e-12  # marginal values below this mean a broken state


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions psi_0 .. psi_n_max on x, shape (n_max+1, len(x)).

    Upward recurrence on the normalized functions; stable for every
    truncation used in this package.
    """
    if n_max < 0:
        raise InvalidParameter("n_max must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-(x**2))
    if n_max >= 1:
        out[1] = 2.0 * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = (2.0 * x / math.sqrt(n)) * out[n - 1] - math.sqrt((n - 1.0) / n) * out[n - 2]
    return out


def marginal_density(state: fock.FockDensity, phi_lo: float):
    """Probability density of X_phi_lo as a callable of x (scalar or array)."""
    rho = fock.rotate_phase(state, phi_lo).matrix

    def density(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        psi = hermite_functions(rho.shape[0] - 1, xs)
        vals = np.einsum("mx,mn,nx->x", psi, rho, psi).real
        return vals[0] if np.isscalar(x) or np.ndim(x) == 0 else vals

    return density


def tabulated_cdf(state: fock.FockDensity, phi_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """(x grid, CDF) of the X_phi_lo marginal on the fixed sampling grid."""
    xs = np.linspace(CDF_SUPPORT[0], CDF_SUPPORT[1], CDF_POINTS)
    p = marginal_density(state, phi_lo)(xs)
    if not (np.min(p) >= DENSITY_FLOOR):
        raise InvalidState(f"marginal density reaches {np.min(p)!r} < {DENSITY_FLOOR}")
    p = np.clip(p, 0.0, None)
    dx = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum((p[1:] + p[:-1]) * (dx / 2.0))])
    total = cdf[-1]
    if not (abs(total - 1.0) <= 1e-6):
        raise InvalidState(f"marginal mass on {CDF_SUPPORT} is {total!r}, not 1")
    return xs, cdf / total


@dataclass(frozen=True)
class HomodyneRun:
    """One Monte Carlo run: state, LO phase, total efficiency, size, seed."""

    state: fock.FockDensity
    phi_lo: float
    eta_total: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.phi_lo):
            raise InvalidParameter(f"phi_lo must be finite, got {self.phi_lo!r}")
        if not (0.0 <= self.eta_total <= 1.0):
            raise InvalidParameter(f"eta_total must be in [0, 1], got {self.eta_total!r}")
        if self.n_samples < 100:
            raise InvalidParameter(f"n_samples must be >= 100, got {self.n_samples!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidParameter(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class VarianceEstimate:
    """Sample mean/variance with a distribution-free error bar on the variance."""

    n: int
    mean_hat: float
    var_hat: float
    std_error_of_var: float
    std_error_normal_theory: float

    def __post_init__(self):
        if not self.var_hat > 0.0:
            raise InvalidParameter(f"var_hat must be positive, got {self.var_hat!r}")


def detected_state(state: fock.FockDensity, eta_total: float) -> fock.FockDensity:
    """State actually reaching the detector after total efficiency eta_total."""
    return state if eta_total == 1.0 else fock.apply_loss(state, eta_total)


def _draw(xs: np.ndarray, cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return np.interp(rng.random(n), cdf, xs)


def sample_quadratures(run: HomodyneRun) -> np.ndarray:
    """Inverse-CDF samples of X_phi_lo behind the loss channel; reproducible per seed."""
    xs, cdf = tabulated_cdf(detected_state(run.state, run.eta_total), run.phi_lo)
    rng = np.random.Generator(np.random.Philox(run.seed))
    return _draw(xs, cdf, run.n_samples, rng)


def estimate_variance(samples: np.ndarray) -> VarianceEstimate:
    """Unbiased variance with standard error from the 4th central moment.

    se^2 = (m4 - s^4 (n-3)/(n-1)) / n; the normal-theory value
    sqrt(2 s^4 / n) is reported alongside for comparison.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise InvalidParameter(f"variance needs >= 2 samples, got {n}")
    if np.all(x == x[0]):
        raise DegenerateData("all samples identical; variance estimate is degenerate")
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1))
    m4 = float(np.mean((x - mean) ** 4))
    se2 = (m4 - var * var * (n - 3.0) / (n - 1.0)) / n
    return VarianceEstimate(
        n=n,
        mean_hat=mean,
        var_hat=var,
        std_error_of_var=math.sqrt(max(0.0, se2)),
        std_error_normal_theory=math.sqrt(2.0 * var * var / n),
    )


def ks_statistic(samples: np.ndarray, xs: np.ndarray, cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between samples and a tabulated CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise InvalidParameter("KS statistic needs at least one sample")
    f = np.interp(x, xs, cdf)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def phase_scan(
    state: fock.FockDensity,
    eta_total: float,
    n_samples: int,
    seed: int,
    n_phases: int,
) -> np.ndarray:
    """Monte Carlo variance vs LO phase over a uniform grid on [0, 2*pi).

    Each phase draws from an independent Philox substream spawned off the
    master seed.  Returns rows
    (phi_lo, var_hat, db_hat, std_error, var_exact, db_exact).
    """
    if n_phases < 4:
        raise InvalidParameter(f"n_phases must be >= 4, got {n_phases!r}")
    lossy = detected_state(state, eta_total)
    # validates eta/n/seed once; per-phase draws reuse the lossy state
    HomodyneRun(state=state, phi_lo=0.0, eta_total=eta_total, n_samples=n_samples, seed=seed)
    streams = np.random.SeedSequence(seed).spawn(n_phases)
    rows = np.empty((n_phases, 6))
    for k, phi in enumerate(np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)):
        xs, cdf = tabulated_cdf(lossy, phi)
        rng = np.random.Generator(np.random.Philox(streams[k]))
        est = estimate_variance(_draw(xs, cdf, n_samples, rng))
        v_exact = fock.quadrature_stats(lossy, phi).variance
        rows[k] = (
            phi,
            est.var_hat,
            fock.variance_to_db(est.var_hat),
            est.std_error_of_var,
            v_exact,
            fock.variance_to_db(v_exact),
        )
    return rows
