"""Phase-space distribution: kernel values, normalization, marginals."""

import math

import numpy as np
import pytest
from scipy import integrate, ndimage
from scipy.special import eval_genlaguerre, eval_hermite

from atomsqueeze import fock, superposition, wigner
from atomsqueeze.errors import InvalidParameter
from atomsqueeze.superposition import SuperpositionSpec

TWO_OVER_PI = 2.0 / math.pi

ONE_THIRD_SPEC = SuperpositionSpec(beta_abs=math.sqrt(1.0 / 3.0), rel_phase=0.0)


def _one_third_density():
    return fock.to_density(superposition.make_superposition(ONE_THIRD_SPEC))


def _position_wavefunction(amplitudes):
    """psi(x) in the scaling where the vacuum has Var(x) = 1/4."""
    amps = np.asarray(amplitudes, dtype=complex)

    def psi(x):
        u = math.sqrt(2.0) * x
        total = 0.0j
        for n, c in enumerate(amps):
            if c == 0.0:
                continue
            norm = 2.0 ** 0.25 / (math.pi ** 0.25 * math.sqrt(2.0 ** n * math.factorial(n)))
            total += c * norm * eval_hermite(n, u) * math.exp(-x * x)
        return total

    return psi


def _transform_oracle(amplitudes, x, p):
    """W(x, p) straight from the defining fold integral of psi."""
    psi = _position_wavefunction(amplitudes)

    def integrand_re(u):
        return (psi(x + u) * np.conj(psi(x - u)) * np.exp(-4j * p * u)).real

    def integrand_im(u):
        return (psi(x + u) * np.conj(psi(x - u)) * np.exp(-4j * p * u)).imag

    re, _ = integrate.quad(integrand_re, -8.0, 8.0, limit=200)
    im, _ = integrate.quad(integrand_im, -8.0, 8.0, limit=200)
    assert abs(im) < 1e-12  # W is real
    return TWO_OVER_PI * re


def _laguerre_kernel(rho, alpha):
    """Displaced-parity kernel with one special-function call per rho entry."""
    dim = rho.shape[0]
    b = 2.0 * alpha
    b2 = (b * b.conj()).real
    env = np.exp(-0.5 * b2)
    w = np.zeros(alpha.shape)
    for m in range(dim):
        w += rho[m, m].real * (-1.0) ** m * env * eval_genlaguerre(m, 0, b2)
        for n in range(m + 1, dim):
            if rho[m, n] == 0.0:
                continue
            scale = math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)))
            knm = (-1.0) ** m * scale * b ** (n - m) * env * eval_genlaguerre(m, n - m, b2)
            w += 2.0 * (rho[m, n] * knm).real
    return TWO_OVER_PI * w


# -------------------------------------------------------------------- values

def test_vacuum_wigner_is_round_gaussian():
    rho = fock.to_density(fock.make_fock_vector([1.0]))
    grid = wigner.wigner_of_state(rho)
    expected = TWO_OVER_PI * np.exp(
        -2.0 * (grid.x1[:, None] ** 2 + grid.x2[None, :] ** 2)
    )
    assert np.max(np.abs(grid.values - expected)) < 1e-12
    assert abs(grid.values[100, 100] - TWO_OVER_PI) < 1e-14
    assert grid.integral_error < 1e-6


def test_single_photon_wigner_negative_at_origin():
    rho = fock.to_density(fock.make_fock_vector([0.0, 1.0]))
    grid = wigner.wigner_of_state(rho)
    r2 = grid.x1[:, None] ** 2 + grid.x2[None, :] ** 2
    expected = TWO_OVER_PI * (4.0 * r2 - 1.0) * np.exp(-2.0 * r2)
    assert np.max(np.abs(grid.values - expected)) < 1e-12
    assert abs(grid.values[100, 100] + TWO_OVER_PI) < 1e-13
    assert grid.integral_error < 1e-6


def test_two_level_state_origin_value_and_normalization():
    grid = wigner.wigner_of_state(_one_third_density())
    assert abs(grid.values[100, 100] - TWO_OVER_PI / 3.0) < 1e-12
    assert grid.integral_error < 1e-6


def test_origin_value_is_parity_expectation():
    # W(0,0) = (2/pi) * sum_n (-1)^n rho_nn, for any state
    rng = np.random.default_rng(4242)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    vec = fock.make_fock_vector(z)
    rho = fock.to_density(vec)
    grid = wigner.wigner_of_state(rho, resolution=17)
    parity = float(np.sum([(-1.0) ** n * rho.matrix[n, n].real for n in range(5)]))
    assert abs(grid.values[8, 8] - TWO_OVER_PI * parity) < 1e-12


def test_grid_matches_fold_integral_oracle():
    spec = SuperpositionSpec(beta_abs=math.sqrt(1.0 / 3.0), rel_phase=0.9)
    vec = superposition.make_superposition(spec)
    grid = wigner.wigner_of_state(fock.to_density(vec), resolution=161)
    # resolution 161 on [-4, 4] puts samples exactly at multiples of 0.05
    for i, j in ((80, 80), (100, 80), (80, 110), (60, 50), (120, 120), (90, 70)):
        x, p = float(grid.x1[i]), float(grid.x2[j])
        assert abs(grid.values[i, j] - _transform_oracle(vec.amplitudes, x, p)) < 1e-9


@pytest.mark.parametrize("n_max", [1, 20, 52, 100])
def test_recurrence_kernel_matches_laguerre_oracle(n_max):
    rng = np.random.default_rng(900 + n_max)
    z = (rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)) * np.exp(
        -0.05 * np.arange(n_max + 1)
    )
    rho = fock.to_density(fock.make_fock_vector(z)).matrix
    # the corners reach |2 alpha|^2 = 128, the far end of the default window
    x = np.linspace(-4.0, 4.0, 21)
    alpha = x[:, None] + 1j * x[None, :]
    got = wigner._displacement_kernel(rho, alpha)
    assert np.max(np.abs(got - _laguerre_kernel(rho, alpha))) < 1e-13


def test_wigner_is_linear_in_the_state():
    vac = np.zeros((2, 2), dtype=complex)
    vac[0, 0] = 1.0
    one = np.zeros((2, 2), dtype=complex)
    one[1, 1] = 1.0
    mix = fock.FockDensity(0.3 * vac + 0.7 * one)
    ga = wigner.wigner_of_state(fock.FockDensity(vac), resolution=33)
    gb = wigner.wigner_of_state(fock.FockDensity(one), resolution=33)
    gm = wigner.wigner_of_state(mix, resolution=33)
    assert np.max(np.abs(gm.values - (0.3 * ga.values + 0.7 * gb.values))) < 1e-12


def test_wigner_values_respect_magnitude_bound():
    rng = np.random.default_rng(515)
    for _ in range(5):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = fock.to_density(fock.make_fock_vector(z))
        grid = wigner.wigner_of_state(rho, resolution=41)
        assert np.max(np.abs(grid.values)) <= TWO_OVER_PI + 1e-9


def test_squeezed_vacuum_normalization_on_default_window():
    vec, _ = superposition.squeezed_vacuum(0.25, 20)
    grid = wigner.wigner_of_state(fock.to_density(vec))
    assert grid.integral_error < 1e-6
    # stronger squeezing pushes the antisqueezed tail toward the window edge
    vec, _ = superposition.squeezed_vacuum(0.5, 20)
    grid = wigner.wigner_of_state(fock.to_density(vec))
    assert grid.integral_error < 1e-5


# ------------------------------------------------------------------ marginals

def test_bilinear_sampler_matches_map_coordinates():
    rng = np.random.default_rng(77)
    values = rng.normal(size=(17, 23))
    r = rng.uniform(-3.0, 19.0, size=4000)
    c = rng.uniform(-3.0, 25.0, size=4000)
    # corners, edges, and points just off the grid
    r[:6] = (0.0, 16.0, 16.0, -1e-12, 16.0 + 1e-12, 8.5)
    c[:6] = (0.0, 22.0, 0.0, 4.0, 4.0, 22.0 + 1e-9)
    expected = ndimage.map_coordinates(values, np.stack([r, c]), order=1, mode="constant", cval=0.0)
    assert np.max(np.abs(wigner._bilinear(values, r, c) - expected)) < 1e-15
    assert np.count_nonzero(expected == 0.0) > 1000  # the off-grid case is exercised


def test_axis_marginals_reduce_to_row_and_column_sums():
    grid = wigner.wigner_of_state(_one_third_density())
    x, dens0 = wigner.wigner_marginal(grid, 0.0)
    expected0 = np.trapezoid(grid.values, grid.x2, axis=1)
    assert np.max(np.abs(dens0 - expected0)) < 1e-12
    assert np.array_equal(x, grid.x1)


def test_marginal_moments_match_quadrature_stats_on_axis():
    grid = wigner.wigner_of_state(_one_third_density())
    rho = _one_third_density()
    for phi_lo in (0.0, math.pi / 2.0):
        x, dens = wigner.wigner_marginal(grid, phi_lo)
        norm = np.trapezoid(dens, x)
        mean = np.trapezoid(x * dens, x) / norm
        var = np.trapezoid(x * x * dens, x) / norm - mean * mean
        st = fock.quadrature_stats(rho, phi_lo)
        assert abs(norm - 1.0) < 1e-9
        assert abs(mean - st.mean) < 1e-9
        assert abs(var - st.variance) < 1e-9


def test_rotated_marginal_converges_quadratically():
    rho = _one_third_density()
    phi_lo = math.pi / 6.0
    exact = superposition.variance_at_lo_phase(ONE_THIRD_SPEC, phi_lo)
    errs = {}
    for res in (101, 201):
        grid = wigner.wigner_of_state(rho, resolution=res)
        x, dens = wigner.wigner_marginal(grid, phi_lo)
        norm = np.trapezoid(dens, x)
        mean = np.trapezoid(x * dens, x) / norm
        var = np.trapezoid(x * x * dens, x) / norm - mean * mean
        errs[res] = abs(var - exact)
    assert errs[201] < 1e-3
    # halving the grid step shrinks the bilinear-sampling error ~4x
    assert errs[101] / errs[201] >= 3.0


def test_rotated_vacuum_marginal_stays_round():
    rho = fock.to_density(fock.make_fock_vector([1.0]))
    grid = wigner.wigner_of_state(rho)
    for phi_lo in (0.3, 0.7, 2.0):
        x, dens = wigner.wigner_marginal(grid, phi_lo)
        norm = np.trapezoid(dens, x)
        var = np.trapezoid(x * x * dens, x) / norm
        assert abs(norm - 1.0) < 1e-6
        assert abs(var - 0.25) < 1e-3


def test_single_photon_marginal_vanishes_at_origin():
    rho = fock.to_density(fock.make_fock_vector([0.0, 1.0]))
    grid = wigner.wigner_of_state(rho)
    x, dens = wigner.wigner_marginal(grid, 0.0)
    assert abs(dens[100]) < 1e-9
    assert abs(float(x[100])) == 0.0


def test_marginal_rejects_non_finite_phase():
    grid = wigner.wigner_of_state(_one_third_density(), resolution=wigner.MIN_RESOLUTION)
    for phi_lo in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter, match="LO phase must be finite"):
            wigner.wigner_marginal(grid, phi_lo)


# ------------------------------------------------------------------ loss sweep

def test_origin_negativity_crosses_zero_at_half_transmission():
    one = fock.to_density(fock.make_fock_vector([0.0, 1.0]))

    def origin_value(eta):
        grid = wigner.wigner_of_state(fock.apply_loss(one, eta), resolution=17)
        return float(grid.values[8, 8])

    for eta in (0.1, 0.35, 0.5, 0.8, 1.0):
        assert abs(origin_value(eta) - TWO_OVER_PI * (1.0 - 2.0 * eta)) < 1e-10

    lo, hi = 0.3, 0.7
    assert origin_value(lo) > 0.0 > origin_value(hi)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if origin_value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 0.5) < 1e-9


# ----------------------------------------------------------------- validation

def test_wigner_parameter_validation():
    rho = fock.to_density(fock.make_fock_vector([1.0]))
    with pytest.raises(InvalidParameter):
        wigner.wigner_of_state(rho, resolution=8)
    with pytest.raises(InvalidParameter):
        wigner.wigner_of_state(rho, x1_range=(-0.5, 0.5))
    with pytest.raises(InvalidParameter):
        wigner.wigner_of_state(rho, x2_range=(0.0, float("inf")))


def test_grid_arrays_are_frozen():
    grid = wigner.wigner_of_state(fock.to_density(fock.make_fock_vector([1.0])), resolution=17)
    assert not grid.values.flags.writeable
    assert abs(grid.integral_error - abs(grid.integral - 1.0)) == 0.0
