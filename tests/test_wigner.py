"""Phase-space distribution: kernel values, normalization, marginals."""

import math
import re

import numpy as np
import pytest
from scipy import integrate, ndimage
from scipy.special import eval_genlaguerre, eval_hermite

from atomsqueeze import fock, superposition, wigner
from atomsqueeze.errors import InvalidParameter, InvalidState
from atomsqueeze.superposition import SuperpositionSpec

from helpers import PEAK_SLACK_BYTES, traced_peak

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


def _complex_accumulation_kernel(rho, alpha):
    """The kernel as it was before its real and in-place arithmetic: the same
    recurrence, a fresh complex array per step, and the complex sum."""
    dim = rho.shape[0]
    b = 2.0 * alpha
    x = (b * b.conj()).real
    front = np.exp(-0.5 * x)
    w = np.zeros(alpha.shape)
    for d in range(dim):
        coeffs = np.diagonal(rho, d) * (-1.0) ** np.arange(dim - d)
        if coeffs.any():
            prev, cur, acc = 0.0, np.ones(x.shape), np.full(x.shape, coeffs[0])
            for m in range(1, dim - d):
                prev, cur = cur, (2 * m - 1 + d - x) * cur - math.sqrt((m - 1) * (m - 1 + d)) * prev
                cur /= math.sqrt(m * (m + d))
                acc += coeffs[m] * cur
            w += (1.0 if d == 0 else 2.0) * (front * acc).real
        front = front * b / math.sqrt(d + 1)
    return TWO_OVER_PI * w


def _kernel_oracle_states():
    """(name, rho): n1 states at two relative phases, squeezed vacua with and
    without loss, and one with a single complex off-diagonal pair."""
    for rel in (0.0, 1.0):
        spec = SuperpositionSpec(beta_abs=0.5, rel_phase=rel)
        yield f"n1-rel{rel}", fock.to_density(superposition.make_superposition(spec)).matrix
    for n_max in (20, 52, 100):
        pure = fock.to_density(superposition.squeezed_vacuum(0.75, n_max)[0])
        yield f"sq-n{n_max}", pure.matrix
        yield f"sq-n{n_max}-lossy", fock.apply_loss(pure, 0.7).matrix
    rho = fock.apply_loss(fock.to_density(superposition.squeezed_vacuum(1.0, 20)[0]), 0.7).matrix.copy()
    rho[3, 1] += 0.01j
    rho[1, 3] -= 0.01j
    yield "sq-n20-one-complex-pair", rho


def _grid(res, x1=(-4.0, 4.0), x2=(-4.0, 4.0)):
    return np.linspace(*x1, res)[:, None] + 1j * np.linspace(*x2, res)[None, :]


def _random_points():
    """Random complex points, no two with the same |2 alpha|^2."""
    rng = np.random.default_rng(3501)
    alpha = rng.uniform(-3.0, 3.0, (23, 19)) + 1j * rng.uniform(-3.0, 3.0, (23, 19))
    assert np.unique((2.0 * alpha * (2.0 * alpha).conj()).real).size == alpha.size
    return alpha


# signed zeros and repeated values on both axes
SIGNED_ZERO_AXIS = np.array([-2.5, -1.0, -0.0, -0.0, 0.0, 0.0, 0.75, 0.75, 1.0, 2.5])


@pytest.mark.parametrize(
    "alpha",
    [
        _grid(41),
        _grid(201),
        _grid(37, (-1.3, 2.9), (0.4, 3.1)),
        _random_points(),
        SIGNED_ZERO_AXIS[:, None] + 1j * SIGNED_ZERO_AXIS[None, ::-1],
    ],
    ids=["41x41", "201x201", "off-centre", "random-points", "signed-zero-axes"],
)
def test_kernel_equals_the_complex_accumulation_bit_for_bit(alpha):
    for name, rho in _kernel_oracle_states():
        got = wigner._displacement_kernel(rho, alpha)
        assert np.array_equal(got.view(np.int64), _complex_accumulation_kernel(rho, alpha).view(np.int64)), name


def test_kernel_allocates_complex_buffers_only_for_a_complex_diagonal(monkeypatch):
    """Complex work arrays are made only for a complex diagonal, and every
    work array but the gather target holds one point per distinct
    x = |2 alpha|^2: the recurrence runs once per radius."""
    made = []
    real_empty = np.empty

    def recording(shape, dtype=float):
        made.append((shape, np.dtype(dtype).kind))
        return real_empty(shape, dtype)

    monkeypatch.setattr(wigner.np, "empty", recording)
    states = dict(_kernel_oracle_states())
    alpha = _grid(17)
    distinct = np.unique((2.0 * alpha * (2.0 * alpha).conj()).real).size
    assert distinct < alpha.size
    real = [(distinct,)] * 5 + [alpha.shape]
    for name, complex_buffers in (("sq-n20-lossy", []), ("n1-rel0.0", []), ("n1-rel1.0", [(distinct,)] * 2 + [alpha.shape])):
        made.clear()
        wigner._displacement_kernel(states[name], alpha)
        assert [shape for shape, kind in made if kind == "f"] == real, name
        assert [shape for shape, kind in made if kind == "c"] == complex_buffers, name


# the traced peak of one n_max = 100 41 x 41 wigner_of_state call under the complex accumulation
COMPLEX_ACCUMULATION_PEAK_BYTES = 233_832


def test_wigner_peaks_no_higher_than_the_complex_accumulation():
    state = fock.apply_loss(fock.to_density(superposition.squeezed_vacuum(0.75, 100)[0]), 0.7)
    peak = traced_peak(lambda: wigner.wigner_of_state(state, resolution=41))
    assert peak <= COMPLEX_ACCUMULATION_PEAK_BYTES + PEAK_SLACK_BYTES


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ranges", [
    ((-1e200, 1e200), (-4.0, 4.0)),
    ((-4.0, 4.0), (-1e300, 1e300)),
    ((-1.7e308, 1.7e308), (-4.0, 4.0)),
    ((-4.0, 4.0), (1e150, 2e150)),
])
def test_wigner_rejects_a_range_whose_scale_overflows(ranges, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(wigner, "_displacement_kernel", no_kernel)
    rho = fock.to_density(fock.make_fock_vector([0.8, 0.6]))
    with pytest.raises(InvalidParameter, match="axis range must lie within"):
        wigner.wigner_of_state(rho, *ranges, resolution=16)


def _dense_density(n_max: int) -> fock.FockDensity:
    """A pure state with every amplitude non-zero, so every Laguerre order runs."""
    rng = np.random.default_rng(n_max)
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    return fock.to_density(fock.make_fock_vector(amps / np.linalg.norm(amps)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 20, 52, 100])
def test_wigner_accepts_the_largest_range_end(n_max):
    rho = _dense_density(n_max)
    end = wigner._max_range_end(n_max + 1)
    assert end >= 9.0  # far outside the default window at every n_max
    grid = wigner.wigner_of_state(rho, (-end, end), (-end, end), 17)
    assert np.all(np.isfinite(grid.values)) and math.isfinite(grid.integral)


@pytest.mark.filterwarnings("error")
def test_wigner_rejects_a_range_past_the_bound_of_its_cutoff(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(wigner, "_displacement_kernel", no_kernel)
    with pytest.raises(InvalidParameter, match=r"axis range must lie within \+-70\.52 \(at n_max = 100\)"):
        wigner.wigner_of_state(_dense_density(100), (-100.0, 100.0), (-100.0, 100.0), 16)


@pytest.mark.filterwarnings("error")
def test_kernel_overflows_just_past_the_bound():
    # the bound is within a factor of three of the real one: at n_max 100 the
    # recurrence overflows at three times its range end
    rho = _dense_density(100)
    end = 3.0 * wigner._max_range_end(101)
    x = np.linspace(-end, end, 16)
    with pytest.raises(RuntimeWarning, match="overflow"):
        wigner._displacement_kernel(rho.matrix, x[:, None] + 1j * x[None, :])


def test_grid_rejects_values_that_do_not_match_the_axes():
    axis = np.linspace(-4.0, 4.0, 17)
    with pytest.raises(InvalidState, match="shape"):
        wigner.WignerGrid(x1=axis, x2=axis, values=np.zeros((17, 16)), integral=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", [
    np.zeros(3),  # wigner_marginal would divide by its zero step
    [0.0, 2.0, 1.0],
    [0.0, 1.0, 1.0],
    [0.0, math.nan, 2.0],
    [0.0, 1.0, math.inf],
    [1.0],
    np.zeros((3, 1)),
    [0.0, 1.0j, 2.0],
    ["0", "1", "2"],
])
def test_grid_rejects_axes_that_are_not_1d_finite_and_strictly_ascending(axis):
    good = np.linspace(-4.0, 4.0, 3)
    values = np.zeros((np.size(axis), 3))
    with pytest.raises(InvalidState, match="x1 must be"):
        wigner.WignerGrid(x1=axis, x2=good, values=values, integral=1.0)
    with pytest.raises(InvalidState, match="x2 must be"):
        wigner.WignerGrid(x1=good, x2=axis, values=values.T, integral=1.0)


def test_grid_stores_list_and_integer_axes_as_float_arrays():
    grid = wigner.wigner_of_state(fock.to_density(fock.make_fock_vector([0.6, 0.8])), resolution=17)
    as_lists = wigner.WignerGrid(x1=grid.x1.tolist(), x2=list(range(17)), values=grid.values, integral=grid.integral)
    assert as_lists.x1.dtype == as_lists.x2.dtype == np.float64
    assert np.array_equal(as_lists.x1, grid.x1) and np.array_equal(as_lists.x2, np.arange(17.0))
    x, p = wigner.wigner_marginal(as_lists, 0.0)
    assert np.all(np.isfinite(p))
    # the kernel's own axes are kept as they are
    assert wigner.WignerGrid(grid.x1, grid.x2, grid.values, grid.integral).x1 is grid.x1


def test_grid_arrays_are_frozen():
    grid = wigner.wigner_of_state(fock.to_density(fock.make_fock_vector([1.0])), resolution=17)
    assert not grid.values.flags.writeable


@pytest.mark.parametrize(("peak", "integral", "message"), [
    (2.0 / math.pi + 2e-9, 1.0, "Wigner values are not finite, or exceed the 2/pi bound"),
    (math.nan, 1.0, "Wigner values are not finite, or exceed the 2/pi bound"),
    (2.0 / math.pi, math.nan, "Wigner integral nan is not finite"),
    (0.0, np.float64(-math.inf), "Wigner integral -inf is not finite"),
])
def test_grid_rejects_values_beyond_the_bound_and_a_non_finite_integral(peak, integral, message):
    axis = np.linspace(-4.0, 4.0, 3)
    values = np.zeros((3, 3))
    values[1, 1] = -peak
    with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
        wigner.WignerGrid(x1=axis, x2=axis, values=values, integral=integral)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("values", "message"), [
    (np.zeros((3, 3), dtype=complex), "values must be real numbers, got dtype complex128"),
    (np.zeros((3, 3)).astype(str), "values must be real numbers, got dtype <U32"),
    ([[0.0] * 3, [0.0] * 3, [0.0] * 2], "values must be a regular array of numbers"),
])
def test_grid_values_must_be_a_regular_array_of_real_numbers(values, message):
    axis = np.linspace(-4.0, 4.0, 3)
    with pytest.raises(InvalidState, match=f"^{message}$"):
        wigner.WignerGrid(x1=axis, x2=axis, values=values, integral=1.0)


def test_grid_stores_list_values_as_a_frozen_float_array():
    grid = wigner.wigner_of_state(fock.to_density(fock.make_fock_vector([0.6, 0.8])), resolution=17)
    as_lists = wigner.WignerGrid(x1=grid.x1, x2=grid.x2, values=grid.values.tolist(), integral=grid.integral)
    assert as_lists.values.dtype == np.float64 and not as_lists.values.flags.writeable
    assert np.array_equal(as_lists.values, grid.values)
    assert abs(grid.integral_error - abs(grid.integral - 1.0)) == 0.0
