"""Shared oracles and random-state factories for the test suite.

The oracles here deliberately avoid the library's own density-matrix code
paths: quadrature moments come from explicit ladder sums on pure states, so
agreement with the package is a genuine cross-check, not a tautology.
"""

import math
import tracemalloc

import numpy as np

from atomsqueeze import fock


def braket_quadrature(amplitudes, phi_lo: float) -> tuple[float, float]:
    """(mean, variance) of X_phi on a pure state by longhand ladder algebra.

    Pads one level so a^dag never clips; exact for any state supported on
    the input truncation.
    """
    c = np.concatenate([np.asarray(amplitudes, dtype=complex), [0.0]])
    n = c.size
    a_psi = np.zeros(n, dtype=complex)
    for m in range(n - 1):
        a_psi[m] = math.sqrt(m + 1.0) * c[m + 1]
    adag_psi = np.zeros(n, dtype=complex)
    for m in range(1, n):
        adag_psi[m] = math.sqrt(float(m)) * c[m - 1]
    x_psi = (np.exp(-1j * phi_lo) * a_psi + np.exp(1j * phi_lo) * adag_psi) / 2.0
    mean = float(np.vdot(c, x_psi).real)
    second = float(np.vdot(x_psi, x_psi).real)  # X is Hermitian
    return mean, second - mean * mean


def random_fock_vector(rng: np.random.Generator, n_max: int) -> fock.FockVector:
    z = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    return fock.make_fock_vector(z)


def random_mixture(rng: np.random.Generator, n_max: int, n_pure: int = 3):
    """Random mixed state as an explicit ensemble: (density, weights, vectors)."""
    weights = rng.dirichlet(np.ones(n_pure))
    vecs = [random_fock_vector(rng, n_max) for _ in range(n_pure)]
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for w, v in zip(weights, vecs):
        rho += w * np.outer(v.amplitudes, v.amplitudes.conj())
    rho = (rho + rho.conj().T) / 2.0
    return fock.FockDensity(rho), weights, vecs


def ensemble_quadrature(weights, vecs, phi_lo: float) -> tuple[float, float]:
    """Mixed-state quadrature moments assembled from the pure-state oracle."""
    mean = 0.0
    second = 0.0
    for w, v in zip(weights, vecs):
        m, var = braket_quadrature(v.amplitudes, phi_lo)
        mean += w * m
        second += w * (var + m * m)
    return mean, second - mean * mean


# Python's own small objects move a call's traced peak by tens of bytes from
# one layout of the code to another; an array kept alive too long moves it
# by tens of KiB (a Fock block of rho at n_max = 100) to MiB (a product block).
PEAK_SLACK_BYTES = 1024


def traced_peak(call) -> int:
    """Bytes of the tracemalloc peak above the start of one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
