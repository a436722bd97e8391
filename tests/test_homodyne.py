"""Homodyne sampling chain: marginals, CDF inversion, estimators, KS check."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_hermite
from scipy.stats import kstest, kstwobign

from atomsqueeze import fock, homodyne, superposition
from atomsqueeze.errors import DegenerateData, InvalidParameter
from atomsqueeze.homodyne import HomodyneRun, VarianceEstimate
from atomsqueeze.superposition import SuperpositionSpec

VACUUM = fock.to_density(fock.make_fock_vector([1.0]))
ONE_THIRD = fock.to_density(superposition.make_superposition(SuperpositionSpec(math.sqrt(1.0 / 3.0), 0.0)))


# -------------------------------------------------------------- wavefunctions

def test_hermite_functions_reference_values():
    psi = homodyne.hermite_functions(1, np.array([0.0]))
    assert abs(psi[0, 0] - (2.0 / math.pi) ** 0.25) < 1e-15
    assert psi[1, 0] == 0.0
    with pytest.raises(InvalidParameter):
        homodyne.hermite_functions(-1, np.array([0.0]))


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


def test_variance_estimate_requires_positive_variance():
    with pytest.raises(InvalidParameter):
        VarianceEstimate(
            n=5, mean_hat=0.0, var_hat=0.0, std_error_of_var=0.1, std_error_normal_theory=0.1
        )


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


def test_estimate_variance_error_paths():
    with pytest.raises(InvalidParameter):
        homodyne.estimate_variance(np.array([1.0]))
    with pytest.raises(DegenerateData):
        homodyne.estimate_variance(np.full(200, 0.7))


# ------------------------------------------------------------------- sampling

def test_sampling_is_reproducible_per_seed():
    run = HomodyneRun(state=ONE_THIRD, phi_lo=0.0, eta_total=1.0, n_samples=500, seed=42)
    a = homodyne.sample_quadratures(run)
    b = homodyne.sample_quadratures(run)
    assert a.size == 500
    assert np.array_equal(a, b)
    other = HomodyneRun(state=ONE_THIRD, phi_lo=0.0, eta_total=1.0, n_samples=500, seed=43)
    assert not np.array_equal(a, homodyne.sample_quadratures(other))


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
