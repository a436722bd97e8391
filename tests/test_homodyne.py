"""Homodyne sampling chain: marginals, CDF inversion, estimators, KS check."""

import gc
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate
from scipy.special import eval_hermite
from scipy.stats import kstest, kstwobign

from atomsqueeze import fock, homodyne, superposition
from atomsqueeze.errors import DegenerateData, InvalidParameter, InvalidState
from atomsqueeze.homodyne import HomodyneRun, VarianceEstimate
from atomsqueeze.superposition import SuperpositionSpec

from helpers import PEAK_SLACK_BYTES, random_mixture, traced_peak

VACUUM = fock.to_density(fock.make_fock_vector([1.0]))
ONE_THIRD = fock.to_density(superposition.make_superposition(SuperpositionSpec(math.sqrt(1.0 / 3.0), 0.0)))
HALF = homodyne.CDF_POINTS // 2


def _mirrored(half):
    """np.linspace(-half, half) with its lower half the exact negation of its upper half."""
    xs = np.linspace(-half, half, homodyne.CDF_POINTS)
    xs[:HALF] = -xs[HALF:][::-1]
    return xs


OLD_GRID = _mirrored(6.0)  # the fixed grid every n_max = 1 state keeps


def _einsum_marginal(state, phi_lo, x):
    """Reference marginal: the complex three-operand sum over the full psi array."""
    rho = fock.rotate_phase(state, phi_lo).matrix
    psi = homodyne.hermite_functions(rho.shape[0] - 1, x)
    return np.einsum("mx,mn,nx->x", psi, rho, psi).real


class _FixedUniforms:
    """Stands in for a Generator whose random(n) returns chosen values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# -------------------------------------------------------------- wavefunctions

def test_hermite_functions_reference_values():
    psi = homodyne.hermite_functions(1, np.array([0.0]))
    assert abs(psi[0, 0] - (2.0 / math.pi) ** 0.25) < 1e-15
    assert psi[1, 0] == 0.0
    with pytest.raises(InvalidParameter):
        homodyne.hermite_functions(-1, np.array([0.0]))
    with pytest.raises(InvalidParameter):
        homodyne.hermite_functions(2.0, np.array([0.0]))


def _hermite_oracle(n_max, x):
    """The recurrence as one plain expression per row."""
    out = np.empty((n_max + 1, x.size))
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-(x**2))
    if n_max >= 1:
        out[1] = 2.0 * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = (2.0 * x / math.sqrt(n)) * out[n - 1] - math.sqrt((n - 1.0) / n) * out[n - 2]
    return out


@pytest.mark.parametrize("half", [6.0, 6.88, 8.8])
def test_hermite_functions_equal_the_plain_recurrence_bit_for_bit(half):
    xs = np.linspace(-half, half, homodyne.CDF_POINTS)
    for n_max in (0, 1, 2, 3, 20, 52, 100):
        for start in range(0, xs.size, 4096):
            x = xs[start : start + 4096]
            got = homodyne.hermite_functions(n_max, x)
            assert np.array_equal(_bits(got), _bits(_hermite_oracle(n_max, x))), (n_max, start)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(n_max=st.integers(0, 100), x=st.just(0.0) | st.floats(-40.0, 40.0))
def test_hermite_functions_have_exact_parity(n_max, x):
    # IEEE round-to-nearest is sign-symmetric, so the recurrence on -x is its
    # run on x with every odd row negated: psi_n(-x) = (-1)^n psi_n(x)
    got = homodyne.hermite_functions(n_max, -x)
    want = (-1.0) ** np.arange(n_max + 1) * homodyne.hermite_functions(n_max, x)
    assert np.array_equal(got, want)
    # beyond |x| = 27.29 psi_0 underflows to 0, and there y - y = +0 whatever
    # the sign of y, so only there may a zero differ in sign
    if want[0] != 0.0:
        assert np.array_equal(_bits(got), _bits(want))


def test_hermite_functions_match_scipy_polynomials():
    x = np.linspace(-3.0, 3.0, 41)
    psi = homodyne.hermite_functions(6, x)
    for n in range(7):
        norm = 2.0 ** 0.25 / (math.pi ** 0.25 * math.sqrt(2.0 ** n * math.factorial(n)))
        ref = norm * eval_hermite(n, math.sqrt(2.0) * x) * np.exp(-(x ** 2))
        assert np.max(np.abs(psi[n] - ref)) < 1e-12


def test_hermite_functions_orthonormal():
    x = np.linspace(-6.0, 6.0, 4001)
    psi = homodyne.hermite_functions(10, x)
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=2)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-9


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (1, 3), (2, 3, 2), ()])
def test_hermite_functions_and_the_marginal_keep_the_shape_of_x(shape):
    # each n-D or 0-d value is the one the 1-D call on x flattened gives, bit for bit
    x = np.linspace(-2.5, 3.0, math.prod(shape)).reshape(shape)
    psi = homodyne.hermite_functions(20, x)
    assert psi.shape == (21, *shape)
    assert np.array_equal(_bits(psi.reshape(21, -1)), _bits(homodyne.hermite_functions(20, x.ravel())))
    dens = homodyne.marginal_density(ONE_THIRD, 0.4)
    got = dens(x)
    assert np.shape(got) == shape
    assert np.array_equal(_bits(np.ravel(got)), _bits(dens(x.ravel())))
    assert dens(float(x.flat[0])) == dens(x.ravel()[:1])[0]


# ------------------------------------------------------------------ marginals

def test_vacuum_marginal_is_gaussian():
    dens = homodyne.marginal_density(VACUUM, 0.0)
    x = np.linspace(-3.0, 3.0, 31)
    expected = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * x ** 2)
    assert np.max(np.abs(dens(x) - expected)) < 1e-12
    assert abs(dens(0.5) - math.sqrt(2.0 / math.pi) * math.exp(-0.5)) < 1e-12


def test_marginal_moments_match_operator_stats():
    for state, phi_lo in ((ONE_THIRD, 0.0), (ONE_THIRD, 0.7), (fock.apply_loss(ONE_THIRD, 0.8), 1.9)):
        dens = homodyne.marginal_density(state, phi_lo)
        norm, _ = integrate.quad(dens, -6.0, 6.0)
        mean, _ = integrate.quad(lambda v: v * dens(v), -6.0, 6.0)
        second, _ = integrate.quad(lambda v: v * v * dens(v), -6.0, 6.0)
        st = fock.quadrature_stats(state, phi_lo)
        assert abs(norm - 1.0) < 1e-9
        assert abs(mean - st.mean) < 1e-9
        assert abs(second - mean * mean - st.variance) < 1e-9


def test_tabulated_cdf_shape_and_monotonicity():
    xs, cdf = homodyne.tabulated_cdf(ONE_THIRD, 0.3)
    assert xs.size == homodyne.CDF_POINTS
    assert cdf[0] == 0.0
    assert abs(cdf[-1] - 1.0) < 1e-12
    assert np.all(np.diff(cdf) >= 0.0)


def test_vacuum_cdf_median_at_origin():
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    median = float(np.interp(0.5, cdf, xs))
    assert abs(median) < 1e-6


def test_full_loss_collapses_marginal_to_vacuum():
    xs0, cdf0 = homodyne.tabulated_cdf(VACUUM, 0.0)
    for phi_lo in (0.0, 1.1):
        xs, cdf = homodyne.tabulated_cdf(homodyne.detected_state(ONE_THIRD, 0.0), phi_lo)
        assert np.array_equal(xs, xs0)
        assert np.max(np.abs(cdf - cdf0)) < 1e-12


@pytest.mark.parametrize("n_max", [1, 20, 52, 100])
def test_marginal_matches_einsum_oracle(n_max):
    rho, _, _ = random_mixture(np.random.default_rng(n_max), n_max)
    # more points than one block, so a block boundary falls inside the grid
    x = np.linspace(-9.0, 9.0, 5001)
    for phi_lo in (0.0, 1.3):
        got = homodyne.marginal_density(rho, phi_lo)(x)
        assert np.max(np.abs(got - _einsum_marginal(rho, phi_lo, x))) < 1e-13


def _lossy_squeezed_vacuum(n_max):
    return fock.apply_loss(fock.to_density(superposition.squeezed_vacuum(0.75, n_max)[0]), 0.7)


@pytest.mark.parametrize("n_max", [20, 52, 100])
def test_parity_split_marginal_equals_the_full_product_bit_for_bit(n_max, monkeypatch):
    # bit for bit under OpenBLAS's SkylakeX dgemm kernel, which the goldens are
    # pinned to; its Haswell kernel sums in another order (ROADMAP item 1)
    calls = []
    split = homodyne._parity_product
    monkeypatch.setattr(homodyne, "_parity_product", lambda rho, psi: calls.append(1) or split(rho, psi))
    state = _lossy_squeezed_vacuum(n_max)
    xs = np.linspace(-9.0, 9.0, 3 * homodyne._MARGINAL_BLOCK + 5)
    blocks = list(homodyne._psi_blocks(n_max, xs))
    for phi in (0.0, 0.4, math.pi / 2.0, 2.9):
        rho = fock._rotated(state.matrix, phi).real
        full = np.concatenate([np.einsum("mx,mx->x", psi, rho @ psi) for psi in blocks])
        got = homodyne._marginal(rho, blocks, xs.size)
        assert np.array_equal(got.view(np.int64), full.view(np.int64))
    assert len(calls) == 4 * len(blocks)


def test_one_odd_offset_entry_takes_the_full_product(monkeypatch):
    def refuse(rho, psi):
        raise AssertionError("a rho with an odd-offset entry took the parity split")

    rho = fock._rotated(_lossy_squeezed_vacuum(20).matrix, 0.4).real.copy()
    xs = np.linspace(-6.0, 6.0, 257)
    psi = homodyne.hermite_functions(20, xs)
    monkeypatch.setattr(homodyne, "_parity_product", refuse)
    for m, n in ((3, 0), (0, 3), (20, 19)):
        odd = rho.copy()
        odd[m, n] = 1e-300
        got = homodyne._marginal(odd, [psi], xs.size)
        assert np.array_equal(got.view(np.int64), np.einsum("mx,mx->x", psi, odd @ psi).view(np.int64))


# the traced peak of one n_max = 100 tabulated_cdf call when rho @ psi was one product
FULL_PRODUCT_CDF_PEAK_BYTES = 7_898_184


def test_parity_split_tabulation_peaks_no_higher_than_the_full_product():
    state = _lossy_squeezed_vacuum(100)
    peak = traced_peak(lambda: homodyne.tabulated_cdf(state, 0.0))
    assert peak <= FULL_PRODUCT_CDF_PEAK_BYTES + PEAK_SLACK_BYTES


def test_marginal_never_sees_more_than_one_block(monkeypatch):
    sizes = []
    real = homodyne.hermite_functions

    def recording(n_max, x):
        sizes.append(np.size(x))
        return real(n_max, x)

    monkeypatch.setattr(homodyne, "hermite_functions", recording)
    vec, _ = superposition.squeezed_vacuum(0.5, 20)
    homodyne.tabulated_cdf(fock.to_density(vec), 0.4)
    assert sum(sizes) == homodyne.CDF_POINTS // 2
    assert max(sizes) <= homodyne._MARGINAL_BLOCK


@pytest.mark.parametrize("half", [1e-3, 1.0, 6.0, 6.88, 8.8, 1e3])
def test_the_grid_is_linspace_s_upper_half_and_its_mirror(half):
    xs = homodyne._grid(half)
    assert np.array_equal(_bits(xs[HALF:]), _bits(np.linspace(-half, half, homodyne.CDF_POINTS)[HALF:]))
    assert np.array_equal(_bits(xs), _bits(-xs[::-1])) and xs[0] == -half and xs[-1] == half
    assert np.all(np.diff(xs) > 0.0)


FOLD_STATES = [("mixture", n) for n in (1, 2, 3, 20, 52, 100)] + [("squeezed", n) for n in (20, 52, 100)]


@pytest.mark.parametrize(("kind", "n_max"), FOLD_STATES)
def test_folded_marginal_equals_the_full_kernel_bit_for_bit(kind, n_max):
    # _tabulate folds the upper half's blocks into both halves of p; p(-x)
    # negates whole terms of the product at x, so unlike the parity split
    # this holds under OpenBLAS's Haswell dgemm kernel too
    if kind == "mixture":
        state = random_mixture(np.random.default_rng(n_max), n_max)[0]
    else:
        state = _lossy_squeezed_vacuum(n_max)
    for phi in (0.0, 0.4, math.pi / 2.0, 2.9):
        xs = homodyne._grid(homodyne._half_width(fock.quadrature_stats(state, phi)))
        rho = fock._rotated(state.matrix, phi).real
        full = homodyne._marginal(rho, homodyne._psi_blocks(n_max, xs), xs.size)
        p = np.empty(xs.size)
        homodyne._marginal(rho, homodyne._psi_blocks(n_max, xs[HALF:]), HALF, p[HALF:], p[HALF - 1 :: -1])
        assert np.array_equal(_bits(p), _bits(full)), phi


def test_a_split_state_tabulates_a_mirror_symmetric_marginal():
    state = _lossy_squeezed_vacuum(20)
    p = np.empty(homodyne.CDF_POINTS)
    for phi in (0.0, 0.4, math.pi / 2.0, 2.9):
        xs = homodyne._grid(homodyne._half_width(fock.quadrature_stats(state, phi)))
        homodyne._tabulate(state, phi, xs, homodyne._psi_blocks(20, xs[HALF:]), p)
        assert np.array_equal(_bits(p), _bits(p[::-1]))


@pytest.mark.parametrize(("state", "split", "products"), [
    (fock.to_density(superposition.squeezed_vacuum(0.5, 20)[0]), 8, 8),
    (ONE_THIRD, 0, 16),  # a coherence rho_01: each block takes a second product, for p(-x)
])
def test_tabulation_evaluates_the_basis_on_half_the_grid(state, split, products, monkeypatch):
    sizes, seen = [], Counter()
    hermite, parity, einsum = homodyne.hermite_functions, homodyne._parity_product, np.einsum
    monkeypatch.setattr(homodyne, "hermite_functions", lambda n, x: sizes.append(np.size(x)) or hermite(n, x))
    monkeypatch.setattr(homodyne, "_parity_product", lambda rho, psi: seen.update(["split"]) or parity(rho, psi))
    monkeypatch.setattr(np, "einsum", lambda *args: seen.update(["einsum"]) or einsum(*args))
    homodyne.tabulated_cdf(state, 0.4)
    assert sizes == [homodyne._MARGINAL_BLOCK] * (HALF // homodyne._MARGINAL_BLOCK)
    assert seen == Counter(split=split, einsum=products)


def test_n_max_1_states_keep_the_fixed_grid():
    assert np.array_equal(OLD_GRID, -OLD_GRID[::-1]) and OLD_GRID[0] == -6.0 and OLD_GRID[-1] == 6.0
    assert np.array_equal(OLD_GRID[HALF:], np.linspace(-6.0, 6.0, homodyne.CDF_POINTS)[HALF:])
    rng = np.random.default_rng(2024)
    for _ in range(50):
        spec = SuperpositionSpec(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        rho = homodyne.detected_state(
            fock.to_density(superposition.make_superposition(spec)), float(rng.uniform(0.0, 1.0))
        )
        xs, _ = homodyne.tabulated_cdf(rho, float(rng.uniform(0.0, 2.0 * math.pi)))
        assert np.array_equal(xs, OLD_GRID)
    # |1> has the largest n_max = 1 variance, 3/4: 6.5 sqrt(3/4) = 5.63 < 6
    xs, _ = homodyne.tabulated_cdf(fock.to_density(fock.make_fock_vector([0.0, 1.0])), 0.0)
    assert np.array_equal(xs, OLD_GRID)


@pytest.mark.parametrize("n_max", [52, 100])
def test_wide_squeezed_vacuum_tabulates_and_samples(n_max):
    # anti-squeezed quadrature of xi = 1: variance e^2/4 puts ~1e-5 of the
    # mass outside [-6, 6], above the 1e-6 the CDF check allows
    vec, _ = superposition.squeezed_vacuum(1.0, n_max)
    rho = fock.to_density(vec)
    phi_lo = math.pi / 2.0
    exact = fock.quadrature_stats(rho, phi_lo).variance
    assert abs(exact - math.exp(2.0) / 4.0) < 1e-2
    xs, cdf = homodyne.tabulated_cdf(rho, phi_lo)
    assert xs[-1] == -xs[0] > 6.0
    assert cdf[-1] == 1.0
    run = HomodyneRun(state=rho, phi_lo=phi_lo, eta_total=1.0, n_samples=100_000, seed=52)
    est = homodyne.estimate_variance(homodyne.sample_quadratures(run))
    assert abs(est.var_hat - exact) < 5.0 * est.std_error_of_var


# ----------------------------------------------------------------- validation

def test_run_validation():
    with pytest.raises(InvalidParameter):
        HomodyneRun(state=VACUUM, phi_lo=0.0, eta_total=-0.1, n_samples=1000, seed=1)
    with pytest.raises(InvalidParameter):
        HomodyneRun(state=VACUUM, phi_lo=0.0, eta_total=1.1, n_samples=1000, seed=1)
    with pytest.raises(InvalidParameter):
        HomodyneRun(state=VACUUM, phi_lo=0.0, eta_total=1.0, n_samples=99, seed=1)
    with pytest.raises(InvalidParameter):
        HomodyneRun(state=VACUUM, phi_lo=0.0, eta_total=1.0, n_samples=1000, seed=-1)
    with pytest.raises(InvalidParameter):
        HomodyneRun(state=VACUUM, phi_lo=0.0, eta_total=1.0, n_samples=1000, seed=1.5)


def test_run_rejects_non_finite_lo_phase():
    for phi_lo in (math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="phi_lo"):
            HomodyneRun(state=VACUUM, phi_lo=phi_lo, eta_total=1.0, n_samples=1000, seed=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi_lo", [math.nan, math.inf, -math.inf])
def test_marginal_density_names_a_non_finite_phase(phi_lo):
    with pytest.raises(InvalidParameter, match="rotation phase must be finite"):
        homodyne.marginal_density(ONE_THIRD, phi_lo)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.array([0.0, math.inf])])
def test_marginal_density_names_a_non_finite_x(x):
    density = homodyne.marginal_density(ONE_THIRD, 0.3)
    with pytest.raises(InvalidParameter, match="finite x, got -?(nan|inf)"):
        density(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [
    "0.5",  # numpy would parse the string as a number
    ["0.1", "0.2"],
    0.5 + 1j,  # numpy would drop the imaginary part with a warning
    np.array([[0.1, 0.2j]]),
    np.array([0.1, None], dtype=object),
])
def test_hermite_functions_and_the_density_reject_x_that_is_not_real_numbers(x):
    density = homodyne.marginal_density(VACUUM, 0.0)
    for evaluate in (density, lambda x: homodyne.hermite_functions(2, x)):
        with pytest.raises(InvalidParameter, match="x must be real numbers, got dtype"):
            evaluate(x)


def test_hermite_functions_and_the_density_take_bool_and_integer_x():
    density = homodyne.marginal_density(ONE_THIRD, 0.3)
    ref = density(np.array([[1.0, 0.0], [2.0, 0.0]]))
    for x in ([[1, 0], [2, 0]], np.array([[1, 0], [2, 0]], dtype=np.uint8), [[True, False], [2.0, 0.0]]):
        assert np.array_equal(density(x), ref)
        assert np.array_equal(homodyne.hermite_functions(3, x), homodyne.hermite_functions(3, np.asarray(x, float)))


def test_kernels_build_only_the_lossy_state(monkeypatch):
    # the kernels rotate the bare matrix, so the one FockDensity a run builds
    # is the state behind the loss channel, and none at eta = 1
    builds = []
    post_init = fock.FockDensity.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(fock.FockDensity, "__post_init__", counted)
    for eta, expected in ((0.8, 1), (1.0, 0)):
        builds.clear()
        homodyne.phase_scan(ONE_THIRD, eta, 400, 5, 32)
        assert len(builds) == expected
    builds.clear()
    homodyne.sample_quadratures(HomodyneRun(state=ONE_THIRD, phi_lo=0.3, eta_total=0.8, n_samples=1000, seed=3))
    assert len(builds) == 1


def test_tabulate_rejects_a_marginal_below_the_density_floor():
    # psi = a|0> + b|1> with a = -2 b x0 has a marginal node at x0, a grid
    # point; mixing in -eps |phi><phi|, phi orthogonal to psi, keeps the least
    # eigenvalue above -1e-10 but pushes p(x0) to ~-4e-11, below the -1e-12
    # marginal floor (TOLERANCES in errors.py)
    x0 = OLD_GRID[32767]
    b = 1.0 / math.sqrt(1.0 + 4.0 * x0 * x0)
    a = -2.0 * b * x0
    psi, phi, eps = np.array([a, b]), np.array([b, -a]), 5e-11
    rho = fock.FockDensity((1.0 + eps) * np.outer(psi, psi) - eps * np.outer(phi, phi))
    with pytest.raises(InvalidState, match=r"marginal density reaches -3\.98\d*e-11 < -1e-12") as exc:
        homodyne.tabulated_cdf(rho, 0.0)
    assert "np.float64" not in str(exc.value)


def test_tabulate_rejects_a_grid_that_misses_mass():
    # [-1, 1] is two vacuum standard deviations: it holds 0.9545 of the mass
    xs = _mirrored(1.0)
    with pytest.raises(InvalidState, match=r"mass on \[-1\.0, 1\.0\] is 0\.9544\d*, not 1") as exc:
        homodyne._tabulate(VACUUM, 0.0, xs, homodyne._psi_blocks(VACUUM.n_max, xs[HALF:]))
    assert "np.float64" not in str(exc.value)


@pytest.mark.parametrize("n_max", [1, 20, 52])
def test_tabulate_in_place_equals_the_out_of_place_trapezoid(n_max):
    # the form _tabulate had before it reused its buffers and folded the
    # marginal, on the full grid, kept as the oracle, bit for bit
    rho = random_mixture(np.random.default_rng(n_max), n_max)[0]
    for phi in (0.0, 0.7, 2.9):
        xs = _mirrored(homodyne._half_width(fock.quadrature_stats(rho, phi)))
        p = homodyne._marginal(fock._rotated(rho.matrix, phi).real, homodyne._psi_blocks(n_max, xs), xs.size)
        p = np.clip(p, 0.0, None)
        cdf = np.concatenate([[0.0], np.cumsum((p[1:] + p[:-1]) * ((xs[1] - xs[0]) / 2.0))])
        got = homodyne._tabulate(rho, phi, xs, homodyne._psi_blocks(n_max, xs[HALF:]))
        assert np.array_equal((cdf / cdf[-1]).view(np.int64), got.view(np.int64))


def test_variance_estimate_requires_positive_variance():
    with pytest.raises(InvalidParameter):
        VarianceEstimate(n=5, mean_hat=0.0, var_hat=0.0, std_error_of_var=0.1)


def test_variance_estimate_derives_its_normal_theory_error():
    # sqrt(2 s^4 / n) = sqrt(2 * 4 / 8) = 1, exactly
    est = VarianceEstimate(n=8, mean_hat=0.0, var_hat=2.0, std_error_of_var=0.1)
    assert est.std_error_normal_theory == 1.0
    # s^4 overflows, as a Python float: an error naming the figure, not a numpy warning
    for var_hat in (1e300, np.float64(1e300)):
        with pytest.raises(InvalidParameter, match="std_error_normal_theory must be finite, got inf"):
            VarianceEstimate(n=8, mean_hat=0.0, var_hat=var_hat, std_error_of_var=0.1)


# ----------------------------------------------------------------- estimators

def test_estimate_variance_two_point_case():
    est = homodyne.estimate_variance(np.array([1.0, -1.0]))
    assert est.n == 2
    assert est.mean_hat == 0.0
    assert est.var_hat == 2.0
    assert abs(est.std_error_of_var - math.sqrt(2.5)) < 1e-15
    assert abs(est.std_error_normal_theory - 2.0) < 1e-15


def test_estimate_variance_matches_numpy():
    rng = np.random.default_rng(31415)
    x = rng.normal(size=500)
    est = homodyne.estimate_variance(x)
    assert abs(est.var_hat - float(np.var(x, ddof=1))) < 1e-15
    assert abs(est.mean_hat - float(np.mean(x))) < 1e-15


def test_estimate_variance_matches_separate_passes():
    rng = np.random.default_rng(2718)
    for n in (2, 3, 500, 100_000):
        x = 3.0 + rng.standard_t(5, size=n)
        est = homodyne.estimate_variance(x)
        assert est.var_hat == float(np.var(x, ddof=1))
        mean = float(np.mean(x))
        m4 = float(np.mean((x - mean) ** 4))
        var = float(np.var(x, ddof=1))
        old = math.sqrt(max(0.0, (m4 - var * var * (n - 3.0) / (n - 1.0)) / n))
        assert abs(est.std_error_of_var - old) <= 1e-12 * old


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 1), (1, 4), ()])
def test_estimators_reject_samples_that_are_not_1d(shape):
    samples = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    for estimator in (homodyne.estimate_variance, lambda x: homodyne.ks_statistic(x, xs, cdf)):
        with pytest.raises(InvalidParameter, match=re.escape(f"got shape {shape}")):
            estimator(samples)


def test_estimators_keep_the_bits_of_1d_samples():
    x = 3.0 + np.random.default_rng(77).standard_t(5, size=1001)
    est = homodyne.estimate_variance(list(x))
    mean = float(np.mean(x))
    d2 = (x - mean) ** 2
    var = float(d2.sum() / 1000)
    m4 = float(np.einsum("i,i->", d2, d2) / 1001)
    assert (est.mean_hat, est.var_hat) == (mean, var)
    assert est.std_error_of_var == math.sqrt(max(0.0, (m4 - var * var * 998.0 / 1000.0) / 1001))
    xs, cdf = homodyne.tabulated_cdf(ONE_THIRD, 0.0)
    f = np.interp(np.sort(x - 3.0), xs, cdf)
    i = np.arange(1, x.size + 1)
    assert homodyne.ks_statistic(tuple(x - 3.0), xs, cdf) == float(max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples", [
    np.array([1 + 5j, 2, 3, 4]),  # numpy would drop the imaginary parts with a warning
    [1 + 5j, 2.0, 3.0],
    ["1", "2", "3"],  # numpy would parse the strings as numbers
    np.array([1.0, None, 3.0], dtype=object),
    [10**30, 1, 2],  # an int past int64 makes an object array
])
def test_estimators_reject_samples_that_are_not_real_numbers(samples):
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    for estimator in (homodyne.estimate_variance, lambda x: homodyne.ks_statistic(x, xs, cdf)):
        with pytest.raises(InvalidParameter, match="samples must be real numbers, got dtype"):
            estimator(samples)


def test_estimators_take_bool_integer_and_float32_samples():
    ints = [1, 2, 3, 5]
    ref = homodyne.estimate_variance([1.0, 2.0, 3.0, 5.0])
    for samples in (ints, np.array(ints, dtype=np.uint8), np.array(ints, dtype=np.float32)):
        assert homodyne.estimate_variance(samples) == ref
    assert homodyne.estimate_variance([True, False, False]) == homodyne.estimate_variance([1.0, 0.0, 0.0])


def test_estimate_variance_error_paths():
    with pytest.raises(InvalidParameter):
        homodyne.estimate_variance(np.array([1.0]))
    with pytest.raises(DegenerateData):
        homodyne.estimate_variance(np.full(200, 0.7))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("samples", "named"),
    [
        ([math.inf, 0.0, 1.0], "sample 0 is inf"),
        ([math.nan, 0.0, 1.0], "sample 0 is nan"),
        ([0.0, 1.0, -math.inf], "sample 2 is -inf"),
        ([math.inf, math.inf], "sample 0 is inf"),
        ([1e200, -1e200, 0.0], "sample 0 is 1e+200"),
        ([0.0, 1.0, 1e100], "sample 2 is 1e+100"),
    ],
)
def test_estimate_variance_names_a_non_finite_or_overflowing_sample(samples, named):
    with pytest.raises(InvalidParameter, match=re.escape(named)):
        homodyne.estimate_variance(np.array(samples))


@pytest.mark.filterwarnings("error")
def test_estimate_variance_keeps_large_finite_moments():
    est = homodyne.estimate_variance(np.array([0.0, 1.0, 1e70]))
    assert est.var_hat == float(np.var([0.0, 1.0, 1e70], ddof=1))
    assert math.isfinite(est.std_error_of_var)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("index", "value", "named"),
    [
        (8_192, math.inf, "sample 8192 is inf"),
        (8_193, math.nan, "sample 8193 is nan"),
        (65_536, -math.inf, "sample 65536 is -inf"),
        (70_001, math.nan, "sample 70001 is nan"),
        # 1e80 / 150,000 is the mean's shift, whose fourth power stays finite
        (8_200, 1e80, "sample 8200 is 1e+80"),
        (65_537, -1e80, "sample 65537 is -1e+80"),
        (149_999, 1e80, "sample 149999 is 1e+80"),
        # the mean shifts by -1e200 / 150,000, so every (x - mean)^2 is inf: the
        # distances, not the squares, tell the outlier from the ordinary samples
        (65_537, -1e200, "sample 65537 is -1e+200"),
    ],
)
def test_estimate_variance_names_a_bad_sample_past_a_block_edge(index, value, named):
    # the moments are taken per 8,192-sample block and per 65,536-sample leaf;
    # the message names the sample's index in the whole array
    x = np.random.default_rng(index).standard_normal(150_000)
    x[index] = value
    with pytest.raises(InvalidParameter, match=re.escape(named)):
        homodyne.estimate_variance(x)


@pytest.mark.filterwarnings("error")
def test_estimate_variance_names_the_sample_farthest_from_the_mean():
    # the mean is 1.2e77: the 0.0 sample's fourth power overflows, and it is
    # not the largest sample
    with pytest.raises(InvalidParameter, match=re.escape("sample 4 is 0.0")):
        homodyne.estimate_variance(np.array([1.5e77, 1.5e77, 1.5e77, 1.5e77, 0.0]))


def _one_shot_moments(x):
    """(var, m4) as estimate_variance took them on the whole sample array at once."""
    mean = float(np.mean(x))
    d2 = x - mean
    d2 *= d2
    return float(np.var(x, ddof=1)), float(np.einsum("i,i->", d2, d2) / x.size)


def _assert_one_shot_bits(x):
    n = x.size
    est = homodyne.estimate_variance(x)
    var, m4 = _one_shot_moments(x)
    assert (est.mean_hat, est.var_hat) == (float(np.mean(x)), var)
    assert est.std_error_of_var == math.sqrt(max(0.0, (m4 - var * var * (n - 3.0) / (n - 1.0)) / n))


# each side of the pairwise sum's 8-wide and 128-element steps, of np.einsum's
# 8,192-element buffer, of a 65,536-sample leaf and of the first tree split
MOMENT_SIZES = [2, 3, 7, 8, 9, 127, 128, 129, 8_191, 8_192, 8_193, 65_535, 65_536, 65_537, 131_071, 131_072, 131_073]


@pytest.mark.parametrize("n", MOMENT_SIZES + [1_000_000])
def test_blockwise_moments_equal_the_one_shot_sums_bit_for_bit(n):
    _assert_one_shot_bits(3.0 + np.random.default_rng(n).standard_t(5, size=n))


@pytest.mark.parametrize("bufsize", [4096, 65536])
def test_blockwise_moments_keep_their_bits_under_another_buffer_size(bufsize):
    # np.einsum's 8,192-element blocks do not follow np.setbufsize
    x = 3.0 + np.random.default_rng(bufsize).standard_t(5, size=300_001)
    old = np.setbufsize(bufsize)
    try:
        _assert_one_shot_bits(x)
    finally:
        np.setbufsize(old)


def test_blockwise_moments_keep_the_bits_of_strided_samples():
    # a strided view is read in place; its (x - mean)^2 is contiguous either way
    x = 3.0 + np.random.default_rng(9).standard_t(5, size=2 * 131_073)
    _assert_one_shot_bits(x[::2])
    assert homodyne.estimate_variance(x[::2]) == homodyne.estimate_variance(x[::2].copy())


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(2, 300_000),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["normal", "heavy", "ties", "offset"]),
)
def test_blockwise_moments_equal_the_one_shot_sums_for_any_size(n, seed, kind):
    rng = np.random.default_rng(seed)
    x = {
        "normal": lambda: rng.standard_normal(n),
        "heavy": lambda: rng.standard_t(2, size=n) * 1e30,
        "ties": lambda: rng.integers(-2, 3, size=n) * 0.1,
        "offset": lambda: 1e8 + rng.standard_normal(n) * 1e-4,
    }[kind]()
    assume(np.ptp(x) > 0.0)
    _assert_one_shot_bits(x)


def test_degenerate_data_is_found_in_any_leaf():
    x = np.full(150_000, 0.7)
    with pytest.raises(DegenerateData):
        homodyne.estimate_variance(x)
    for i in (0, 65_535, 65_536, 149_999):  # one differing sample, in the first or a later leaf
        y = x.copy()
        y[i] = 0.8
        _assert_one_shot_bits(y)


def test_estimate_variance_keeps_no_reference_to_its_samples():
    # a reference cycle through the samples (a recursive closure over them,
    # say) would keep each caller's array alive until the cyclic collector ran
    x = np.random.default_rng(13).standard_normal(200_000)
    ref = weakref.ref(x)
    gc.disable()
    try:
        homodyne.estimate_variance(x)
        del x
        assert ref() is None
    finally:
        gc.enable()


def test_estimate_variance_holds_no_sample_sized_temporary():
    # (x - mean)^2 of 10^6 samples alone is 8 MB
    x = 0.5 * np.random.default_rng(12).standard_normal(1_000_000)
    assert traced_peak(lambda: homodyne.estimate_variance(x)) < 2**20


# ------------------------------------------------------------------- sampling

def test_sampling_is_reproducible_per_seed():
    run = HomodyneRun(state=ONE_THIRD, phi_lo=0.0, eta_total=1.0, n_samples=500, seed=42)
    a = homodyne.sample_quadratures(run)
    b = homodyne.sample_quadratures(run)
    assert a.size == 500
    assert np.array_equal(a, b)
    other = HomodyneRun(state=ONE_THIRD, phi_lo=0.0, eta_total=1.0, n_samples=500, seed=43)
    assert not np.array_equal(a, homodyne.sample_quadratures(other))


@pytest.mark.parametrize("n", [100, 2000, 10_000, 1_000_000])
def test_draw_equals_np_interp_bit_for_bit(n):
    vec, _ = superposition.squeezed_vacuum(0.75, 20)
    states = [(ONE_THIRD, 0.3), (fock.apply_loss(ONE_THIRD, 0.7), 2.1), (fock.to_density(vec), 1.0)]
    for k, (state, phi_lo) in enumerate(states):
        xs, cdf = homodyne.tabulated_cdf(state, phi_lo)
        got = homodyne._draw(xs, cdf, n, np.random.Generator(np.random.Philox(k)))
        want = np.interp(np.random.Generator(np.random.Philox(k)).random(n), cdf, xs)
        assert np.array_equal(_bits(got), _bits(want))


def _n100_cdf_with_flat_runs():
    """An n_max = 100 CDF, with flat runs and a subnormal step added by hand."""
    xs, cdf = homodyne.tabulated_cdf(_lossy_squeezed_vacuum(100), 0.4)
    cdf = cdf.copy()
    cdf[:40] = 0.0
    cdf[40] = 5e-324
    cdf[30000:30020] = cdf[30000]
    cdf[40000:40200] = cdf[40000]
    return xs, cdf


CHUNK = homodyne._DRAW_CHUNK


@pytest.mark.parametrize("n", [2 * CHUNK, 2 * CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK, 3 * CHUNK + 1, 1_000_000])
def test_draw_equals_np_interp_at_chunk_edges(n):
    # a last chunk that is whole, one draw long, or short by one, on the table path
    assert homodyne._INTERP_MAX_DRAWS <= 2 * CHUNK
    for k, (xs, cdf) in enumerate([homodyne.tabulated_cdf(ONE_THIRD, 0.3), _n100_cdf_with_flat_runs()]):
        got = homodyne._draw(xs, cdf, n, np.random.Generator(np.random.Philox(k)))
        want = np.interp(np.random.Generator(np.random.Philox(k)).random(n), cdf, xs)
        assert np.array_equal(_bits(got), _bits(want))


def test_sample_quadratures_holds_no_sample_sized_temporary():
    # the 10^6 samples returned are 7.6 MiB; the grid, the CDF, the guide and
    # slope tables and the chunk buffers take the rest
    run = HomodyneRun(state=ONE_THIRD, phi_lo=0.3, eta_total=0.8, n_samples=1_000_000, seed=3)
    assert traced_peak(lambda: homodyne.sample_quadratures(run)) < 10.5 * 2**20


def test_draw_equals_np_interp_on_edge_uniforms():
    # the vacuum CDF saturates: toward x = 6 it reaches 1.0 and stays there;
    # flat runs at 0 (clipped round-off in a tail) and inside are added by
    # hand, and a subnormal step whose chord slope overflows to inf
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    cdf = cdf.copy()
    cdf[:40] = 0.0
    cdf[40] = 5e-324
    cdf[30000:30020] = cdf[30000]
    assert np.count_nonzero(cdf == 1.0) > 1000 and np.all(np.diff(cdf) >= 0.0)
    top = np.unique(cdf[cdf < 1.0])[-200:]
    knots = cdf[np.random.default_rng(5).integers(0, cdf.size - 1, 3000)]
    u = np.concatenate([
        [0.0, np.nextafter(0.0, 1.0), 2.0**-53, 0.5, np.nextafter(1.0, 0.0), cdf[30000]],
        knots,
        np.nextafter(knots, 1.0),
        np.nextafter(knots[knots > 0.0], 0.0),
        top,
        np.nextafter(top, 1.0),
    ])
    u = u[u < 1.0]
    for n in (u.size, 100):  # a wide and a narrow guide table
        sub = u[:n]
        got = homodyne._draw(xs, cdf, n, _FixedUniforms(sub))
        assert np.array_equal(_bits(got), _bits(np.interp(sub, cdf, xs)))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_draw_equals_np_interp_around_the_interp_threshold(offset, monkeypatch):
    n = homodyne._INTERP_MAX_DRAWS + offset
    interp = np.interp
    calls = []

    def recording(u, cdf, xs):
        calls.append(np.size(u))
        return interp(u, cdf, xs)

    vec, _ = superposition.squeezed_vacuum(0.75, 20)
    states = [(ONE_THIRD, 0.3), (fock.apply_loss(ONE_THIRD, 0.7), 2.1), (fock.to_density(vec), 1.0)]
    for k, (state, phi_lo) in enumerate(states):
        xs, cdf = homodyne.tabulated_cdf(state, phi_lo)
        monkeypatch.setattr(np, "interp", recording)
        got = homodyne._draw(xs, cdf, n, np.random.Generator(np.random.Philox(k)))
        monkeypatch.setattr(np, "interp", interp)
        want = interp(np.random.Generator(np.random.Philox(k)).random(n), cdf, xs)
        assert np.array_equal(_bits(got), _bits(want))
    # below the threshold np.interp draws; from it on the slope table does
    assert calls == ([n] * len(states) if offset < 0 else [])


def test_draw_table_path_equals_np_interp_on_edge_uniforms():
    # the edge uniforms of the test above, tiled past the np.interp threshold,
    # plus knots one and more past the guide bracket of their bin
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    cdf = cdf.copy()
    cdf[:40] = 0.0
    cdf[40] = 5e-324
    cdf[30000:30020] = cdf[30000]
    top = np.unique(cdf[cdf < 1.0])[-200:]
    knots = cdf[np.random.default_rng(5).integers(0, cdf.size - 1, 3000)]
    edge = np.concatenate([
        [0.0, np.nextafter(0.0, 1.0), 2.0**-53, 0.5, np.nextafter(1.0, 0.0), cdf[30000]],
        knots,
        np.nextafter(knots, 1.0),
        np.nextafter(knots[knots > 0.0], 0.0),
        top,
        np.nextafter(top, 1.0),
    ])
    u = np.tile(edge[edge < 1.0], 3)
    n = u.size
    assert n > homodyne._INTERP_MAX_DRAWS
    bins = min(homodyne._GUIDE_BINS, 1 << (n.bit_length() - 1))
    guide = np.searchsorted(cdf, np.arange(bins + 1) / bins, "right") - 1
    past = np.searchsorted(cdf, u, "right") - 1 - guide[(u * bins).astype(np.intp)]
    # the guide bracket, the one-step correction and the searchsorted fallback
    assert np.count_nonzero(past == 0) and np.count_nonzero(past == 1) and np.count_nonzero(past > 1)
    got = homodyne._draw(xs, cdf, n, _FixedUniforms(u))
    assert np.array_equal(_bits(got), _bits(np.interp(u, cdf, xs)))


def _edge_cdf():
    """The vacuum CDF with flat runs at 0 and inside, and a subnormal step."""
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    cdf = cdf.copy()
    cdf[:40] = 0.0
    cdf[40] = 5e-324
    cdf[30000:30020] = cdf[30000]
    return xs, cdf


def test_sorted_draw_equals_np_interp_on_duplicate_uniforms():
    # tied uniforms sort in any order, and each still meets np.interp alone:
    # 0.0, repeated exact knots (flat runs and the subnormal step among them)
    # and repeated values between knots
    xs, cdf = _edge_cdf()
    rng = np.random.default_rng(6)
    knots = cdf[rng.integers(0, cdf.size - 1, 500)]
    u = np.concatenate([
        np.zeros(50),
        np.repeat(knots, 4),
        np.full(30, cdf[30000]),
        np.full(20, 5e-324),
        np.repeat(np.nextafter(knots, 1.0), 2),
        np.repeat(rng.random(500), 3),
    ])
    u = u[u < 1.0]
    rng.shuffle(u)
    assert u.size < homodyne._INTERP_MAX_DRAWS and np.unique(u).size < u.size
    for n in (u.size, 100):
        sub = u[:n]
        got = homodyne._draw(xs, cdf, n, _FixedUniforms(sub))
        assert np.array_equal(_bits(got), _bits(np.interp(sub, cdf, xs)))


@pytest.mark.parametrize(("n", "sorted_path"), [(100, True), (10_000, True), (16_383, True), (16_384, False)])
def test_np_interp_sees_ascending_uniforms_below_the_threshold(n, sorted_path, monkeypatch):
    interp = np.interp
    seen = []

    def recording(u, cdf, xs):
        seen.append(np.array(u))
        return interp(u, cdf, xs)

    xs, cdf = homodyne.tabulated_cdf(ONE_THIRD, 0.3)
    monkeypatch.setattr(np, "interp", recording)
    got = homodyne._draw(xs, cdf, n, np.random.Generator(np.random.Philox(4)))
    monkeypatch.setattr(np, "interp", interp)
    u = np.random.Generator(np.random.Philox(4)).random(n)
    assert np.array_equal(_bits(got), _bits(interp(u, cdf, xs)))
    if sorted_path:
        [sorted_u] = seen
        assert np.array_equal(sorted_u, np.sort(u))
    else:
        assert seen == []


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    steps=st.lists(st.sampled_from([0.0, 5e-324, 1e-300]) | st.floats(0.0, 1.0), min_size=1, max_size=40),
    free=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    size=st.sampled_from(["given", "below", "at", "above"]),
)
def test_draw_equals_np_interp_for_any_cdf(steps, free, size):
    # a non-decreasing CDF from 0 to 1 (flat runs, subnormal steps) and
    # uniforms free or on and just past its knots, through both branches
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    assume(cdf[-1] > 0.0)
    cdf /= cdf[-1]
    xs = np.linspace(-6.0, 6.0, cdf.size)
    knots = cdf[cdf < 1.0]
    u = np.concatenate([free, knots, np.nextafter(knots, 1.0)])
    u = u[u < 1.0]
    threshold = homodyne._INTERP_MAX_DRAWS
    n = {"given": u.size, "below": threshold - 1, "at": threshold, "above": threshold + 7}[size]
    u = np.resize(u, n)
    got = homodyne._draw(xs, cdf, n, _FixedUniforms(u))
    assert np.array_equal(_bits(got), _bits(np.interp(u, cdf, xs)))


def test_vacuum_sampling_recovers_quarter_variance():
    run = HomodyneRun(state=VACUUM, phi_lo=0.0, eta_total=1.0, n_samples=200_000, seed=777)
    est = homodyne.estimate_variance(homodyne.sample_quadratures(run))
    assert abs(est.var_hat - 0.25) < 5.0 * est.std_error_of_var
    assert abs(est.mean_hat) < 5.0 * math.sqrt(0.25 / est.n)


def test_ks_statistic_against_scipy_and_threshold():
    n = 100_000
    run = HomodyneRun(state=ONE_THIRD, phi_lo=0.0, eta_total=1.0, n_samples=n, seed=888)
    samples = homodyne.sample_quadratures(run)
    xs, cdf = homodyne.tabulated_cdf(ONE_THIRD, 0.0)
    ks = homodyne.ks_statistic(samples, xs, cdf)
    assert abs(ks - kstest(samples, lambda v: np.interp(v, xs, cdf)).statistic) < 1e-14
    assert ks < kstwobign.isf(0.001) / math.sqrt(n)


def test_ks_statistic_flags_wrong_distribution():
    run = HomodyneRun(state=ONE_THIRD, phi_lo=0.0, eta_total=1.0, n_samples=100_000, seed=888)
    samples = homodyne.sample_quadratures(run)
    one = fock.to_density(fock.make_fock_vector([0.0, 1.0]))
    xs, cdf = homodyne.tabulated_cdf(one, 0.0)
    assert homodyne.ks_statistic(samples, xs, cdf) > 0.1
    with pytest.raises(InvalidParameter):
        homodyne.ks_statistic(np.array([]), xs, cdf)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            homodyne.ks_statistic(np.array([0.1, bad, 0.2]), xs, cdf)


def test_ks_statistic_rejects_a_grid_that_is_not_1d():
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    with pytest.raises(InvalidParameter, match=re.escape("xs must be a 1-D array, got shape (2, 32768)")):
        homodyne.ks_statistic([0.1, 0.2], xs.reshape(2, -1), cdf)
    with pytest.raises(InvalidParameter, match=re.escape("cdf must be a 1-D array, got shape (2, 32768)")):
        homodyne.ks_statistic([0.1, 0.2], xs, cdf.reshape(2, -1))


def test_ks_statistic_rejects_a_cdf_of_another_length():
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    with pytest.raises(InvalidParameter, match="xs and cdf must have one length, got 65536 and 65535"):
        homodyne.ks_statistic([0.1, 0.2], xs, cdf[:-1])


@pytest.mark.parametrize("grid", ["descending", "flat", "nan", "empty"])
def test_ks_statistic_rejects_a_grid_that_does_not_ascend_strictly(grid):
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    xs = {
        "descending": xs[::-1],  # np.interp would read this grid as a distance of 1.0
        "flat": np.where(np.arange(xs.size) == 7, xs[6], xs),
        "nan": np.where(np.arange(xs.size) == 7, math.nan, xs),
        "empty": xs[:0],
    }[grid]
    with pytest.raises(InvalidParameter, match="xs must be a non-empty, strictly ascending grid"):
        homodyne.ks_statistic([0.1, 0.2], xs, cdf[: xs.size])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_statistic_rejects_a_cdf_that_is_not_finite(bad):
    xs, cdf = homodyne.tabulated_cdf(VACUUM, 0.0)
    cdf = np.where(np.arange(cdf.size) == 32768, bad, cdf)  # np.interp would return NaN from here
    with pytest.raises(InvalidParameter, match="cdf must be finite"):
        homodyne.ks_statistic([0.1, 0.2], xs, cdf)


# ----------------------------------------------------------------- phase scan

def test_phase_scan_layout_and_exact_columns():
    rows = homodyne.phase_scan(ONE_THIRD, 0.9, 400, 11, 8)
    assert rows.shape == (8, 6)
    assert np.allclose(rows[:, 0], np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False), atol=1e-15)
    lossy = fock.apply_loss(ONE_THIRD, 0.9)
    for phi, var_hat, db_hat, se, v_exact, db_exact in rows:
        assert abs(v_exact - fock.quadrature_stats(lossy, float(phi)).variance) < 1e-12
        assert abs(db_hat - fock.variance_to_db(var_hat)) < 1e-12
        assert abs(db_exact - fock.variance_to_db(v_exact)) < 1e-12
        assert se > 0.0


def test_phase_scan_reproducible_and_substreams_differ():
    a = homodyne.phase_scan(ONE_THIRD, 1.0, 400, 5, 6)
    b = homodyne.phase_scan(ONE_THIRD, 1.0, 400, 5, 6)
    assert np.array_equal(a, b)
    # independent substreams: estimates differ even where exact variances agree
    assert a[1, 1] != a[3, 1]


def test_phase_scan_finds_the_squeezed_phase():
    opt = fock.to_density(
        superposition.make_superposition(SuperpositionSpec(0.5, math.pi / 2.0))
    )
    rows = homodyne.phase_scan(opt, 1.0, 4000, 999, 16)
    k = int(np.argmin(rows[:, 1]))
    # deepest squeezing sits at phi_lo = pi/2 or the mirror phase 3pi/2
    assert k in (4, 12)
    assert abs(rows[k, 4] - 3.0 / 16.0) < 1e-12


def test_phase_scan_validation():
    with pytest.raises(InvalidParameter):
        homodyne.phase_scan(ONE_THIRD, 1.0, 400, 5, 3)
    with pytest.raises(InvalidParameter):
        homodyne.phase_scan(ONE_THIRD, 1.5, 400, 5, 8)
    with pytest.raises(InvalidParameter, match="n_samples must be an integer >= 100"):
        homodyne.phase_scan(ONE_THIRD, 1.0, 99, 5, 8)
    with pytest.raises(InvalidParameter, match="seed must be an integer >= 0"):
        homodyne.phase_scan(ONE_THIRD, 1.0, 400, -1, 8)


def test_phase_scan_builds_no_homodyne_run(monkeypatch):
    # the scan checks its own inputs; a HomodyneRun is one Monte Carlo run's record
    built = []
    check = homodyne.HomodyneRun.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(homodyne.HomodyneRun, "__post_init__", counted)
    homodyne.phase_scan(ONE_THIRD, 0.8, 400, 5, 32)
    assert built == []


def _phase_scan_oracle(state, eta_total, n_samples, seed, n_phases):
    """Rows of phase_scan, one phase at a time through the public kernels."""
    lossy = homodyne.detected_state(state, eta_total)
    streams = np.random.SeedSequence(seed).spawn(n_phases)
    rows = []
    for k, phi in enumerate(np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)):
        xs, cdf = homodyne.tabulated_cdf(lossy, phi)
        u = np.random.Generator(np.random.Philox(streams[k])).random(n_samples)
        est = homodyne.estimate_variance(np.interp(u, cdf, xs))
        v_exact = fock.quadrature_stats(lossy, phi).variance
        rows.append((
            phi,
            est.var_hat,
            fock.variance_to_db(est.var_hat),
            est.std_error_of_var,
            v_exact,
            fock.variance_to_db(v_exact),
        ))
    return np.array(rows)


def test_phase_scan_equals_the_per_phase_oracle():
    got = homodyne.phase_scan(ONE_THIRD, 0.9, 400, 11, 8)
    assert np.array_equal(_bits(got), _bits(_phase_scan_oracle(ONE_THIRD, 0.9, 400, 11, 8)))
    # n_max = 20: the anti-squeezed phases need a support wider than [-6, 6],
    # the others keep it, and the draws go through the slope table
    vec, _ = superposition.squeezed_vacuum(0.75, 20)
    rho = fock.to_density(vec)
    lossy = homodyne.detected_state(rho, 0.9)
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    halves = {float(homodyne.tabulated_cdf(lossy, phi)[0][-1]) for phi in phases}
    assert homodyne.MIN_HALF_WIDTH in halves and len(halves) > 1
    n = homodyne._INTERP_MAX_DRAWS + 1
    got = homodyne.phase_scan(rho, 0.9, n, 12, 8)
    assert np.array_equal(_bits(got), _bits(_phase_scan_oracle(rho, 0.9, n, 12, 8)))


def test_phase_scan_tabulates_every_phase_into_one_buffer_pair(monkeypatch):
    seen = []
    real = homodyne._tabulate

    def recording(state, phi_lo, xs, blocks, p=None, cdf=None):
        seen.append((p, cdf))
        return real(state, phi_lo, xs, blocks, p, cdf)

    monkeypatch.setattr(homodyne, "_tabulate", recording)
    homodyne.phase_scan(ONE_THIRD, 0.9, 400, 11, 8)
    assert len(seen) == 8 and len({(id(p), id(cdf)) for p, cdf in seen}) == 1
    p, cdf = seen[0]
    assert p.shape == cdf.shape == (homodyne.CDF_POINTS,) and not np.shares_memory(p, cdf)
    # tabulated_cdf still hands each caller a CDF of its own
    assert not np.shares_memory(homodyne.tabulated_cdf(ONE_THIRD, 0.3)[1], homodyne.tabulated_cdf(ONE_THIRD, 0.3)[1])


def test_phase_scan_computes_the_moments_once_per_phase(monkeypatch):
    calls = []
    real = fock.quadrature_stats

    def counting(state, phi_lo):
        calls.append(phi_lo)
        return real(state, phi_lo)

    monkeypatch.setattr(fock, "quadrature_stats", counting)
    homodyne.phase_scan(ONE_THIRD, 0.9, 400, 11, 8)
    assert len(calls) == 8


def _hermite_calls(monkeypatch, state, n_phases):
    """Block sizes seen by hermite_functions during one 400-draw phase_scan."""
    sizes = []
    real = homodyne.hermite_functions

    def recording(n_max, x):
        sizes.append(np.size(x))
        return real(n_max, x)

    monkeypatch.setattr(homodyne, "hermite_functions", recording)
    homodyne.phase_scan(state, 1.0, 400, 3, n_phases)
    monkeypatch.setattr(homodyne, "hermite_functions", real)
    return sizes


def test_phase_scan_builds_the_basis_once_per_support(monkeypatch):
    blocks = HALF // homodyne._MARGINAL_BLOCK
    assert blocks == 8
    # every n_max = 1 state has the support [-6, 6]: one basis for all phases
    assert _hermite_calls(monkeypatch, ONE_THIRD, 8) == [homodyne._MARGINAL_BLOCK] * blocks
    # n_max = 20 at 8 phases: supports 6, 6, 6.88, 6, 6, 6, 6.88, 6 change
    # five times, so five bases rather than eight
    vec, _ = superposition.squeezed_vacuum(0.75, 20)
    sizes = _hermite_calls(monkeypatch, fock.to_density(vec), 8)
    assert sizes == [homodyne._MARGINAL_BLOCK] * (blocks * 5)
