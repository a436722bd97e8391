"""Two-level superposition closed forms and the squeezed-vacuum expansion."""

import math

import numpy as np
import pytest

from atomsqueeze import fock, superposition
from atomsqueeze.errors import InvalidParameter
from atomsqueeze.superposition import SuperpositionSpec

OPTIMAL = SuperpositionSpec(beta_abs=0.5, rel_phase=0.0)
ONE_THIRD = SuperpositionSpec(beta_abs=math.sqrt(1.0 / 3.0), rel_phase=0.0)


def _numeric_variance(spec, phi_lo):
    rho = fock.to_density(superposition.make_superposition(spec))
    return fock.quadrature_stats(rho, phi_lo).variance


# -------------------------------------------------------------------- spec

def test_spec_validation():
    with pytest.raises(InvalidParameter):
        SuperpositionSpec(beta_abs=-0.1, rel_phase=0.0)
    with pytest.raises(InvalidParameter):
        SuperpositionSpec(beta_abs=1.1, rel_phase=0.0)
    with pytest.raises(InvalidParameter):
        SuperpositionSpec(beta_abs=float("nan"), rel_phase=0.0)
    with pytest.raises(InvalidParameter):
        SuperpositionSpec(beta_abs=0.5, rel_phase=float("inf"))


def test_gamma_is_real_nonnegative_complement():
    assert abs(SuperpositionSpec(0.6, 0.0).gamma - 0.8) < 1e-15
    assert SuperpositionSpec(1.0, 0.3).gamma == 0.0


def test_make_superposition_amplitudes():
    v = superposition.make_superposition(SuperpositionSpec(0.5, 1.1))
    assert abs(v.amplitudes[0] - math.sqrt(0.75)) < 1e-15
    assert abs(v.amplitudes[1] - 0.5 * np.exp(1.1j)) < 1e-15


# ------------------------------------------------------------- closed forms

def test_reference_variances():
    assert abs(superposition.superposition_variance(OPTIMAL, 1) - 3.0 / 16.0) < 1e-15
    assert abs(superposition.superposition_variance(OPTIMAL, 2) - 3.0 / 8.0) < 1e-15
    assert abs(superposition.superposition_variance(ONE_THIRD, 1) - 7.0 / 36.0) < 1e-15
    assert abs(superposition.superposition_variance(ONE_THIRD, 2) - 5.0 / 12.0) < 1e-15


def test_superposition_variance_rejects_other_indices():
    with pytest.raises(InvalidParameter):
        superposition.superposition_variance(OPTIMAL, 3)
    with pytest.raises(InvalidParameter):
        superposition.superposition_variance(OPTIMAL, 0)


def test_closed_forms_match_numerics_on_grid():
    for beta in np.linspace(0.0, 1.0, 60):
        for phi in np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False):
            spec = SuperpositionSpec(float(beta), float(phi))
            for phi_lo in (0.0, math.pi / 2.0, 0.7):
                closed = superposition.variance_at_lo_phase(spec, phi_lo)
                assert abs(closed - _numeric_variance(spec, phi_lo)) < 1e-12


def test_variance_sum_rule_on_grid():
    # V1 + V2 is phase-independent: 1/2 + |beta|^4
    for beta in np.linspace(0.0, 1.0, 40):
        for phi in np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False):
            spec = SuperpositionSpec(float(beta), float(phi))
            v1, v2 = superposition.quadrature_variances(spec)
            analytic = 0.5 + float(beta) ** 4
            assert abs((v1 + v2) - analytic) < 1e-12
            numeric = _numeric_variance(spec, 0.0) + _numeric_variance(spec, math.pi / 2.0)
            assert abs((v1 + v2) - numeric) < 1e-12


def test_min_variance_bounds_phase_scan():
    for beta in (0.2, 0.5, 1.0 / math.sqrt(2.0), 0.9):
        spec = SuperpositionSpec(beta, 0.8)
        floor = superposition.min_variance(spec)
        scan = [
            superposition.variance_at_lo_phase(spec, p)
            for p in np.linspace(0.0, math.pi, 721)
        ]
        assert min(scan) >= floor - 1e-12
        assert min(scan) <= floor + 1e-6  # dense scan reaches the minimum


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi_lo", [math.nan, math.inf, -math.inf])
def test_variance_at_lo_phase_rejects_a_non_finite_phase(phi_lo):
    with pytest.raises(InvalidParameter, match="LO phase must be finite"):
        superposition.variance_at_lo_phase(ONE_THIRD, phi_lo)


def test_squeezing_region_boundaries():
    assert not superposition.squeezing_region(SuperpositionSpec(0.0, 0.0))
    assert superposition.squeezing_region(SuperpositionSpec(0.5, 0.0))
    assert not superposition.squeezing_region(SuperpositionSpec(1.0 / math.sqrt(2.0), 0.0))
    assert not superposition.squeezing_region(SuperpositionSpec(0.9, 0.0))


def test_optimal_beta_values():
    beta, v, db = superposition.optimal_beta()
    assert beta == 0.5
    assert abs(v - 3.0 / 16.0) < 1e-15
    assert round(db, 4) == -1.2494


def test_optimal_beta_agrees_with_a_grid_scan_to_one_step():
    # V = 1/4 + beta^2 (beta^2 - 1/2) at the best LO phase, scanned over 10,000 betas
    beta_opt, v_opt, _ = superposition.optimal_beta()
    betas = np.linspace(0.0, 1.0, 10_000)
    b2 = betas**2
    v_scan = fock.VACUUM_VARIANCE + b2 * (b2 - 0.5)
    i = int(np.argmin(v_scan))
    step = float(betas[1] - betas[0])
    assert abs(float(betas[i]) - beta_opt) <= step
    assert abs(float(v_scan[i]) - v_opt) <= step


# ---------------------------------------------------------- squeezed vacuum

def _raw_even_coefficients(xi, top):
    """Independent expansion via the two-step ratio recurrence."""
    c = [math.sqrt(1.0 / math.cosh(xi))]
    for k in range(top // 2):
        n = 2 * k
        c.append(c[-1] * (-math.tanh(xi)) * math.sqrt((n + 1.0) * (n + 2.0)) / (n + 2.0))
    return np.array(c)


def test_squeezed_vacuum_odd_levels_exactly_zero():
    vec, _ = superposition.squeezed_vacuum(0.5, 20)
    assert np.all(vec.amplitudes[1::2] == 0.0)


def test_squeezed_vacuum_two_photon_ratio():
    vec, _ = superposition.squeezed_vacuum(0.5, 20)
    ratio = (vec.amplitudes[2] / vec.amplitudes[0]).real
    assert abs(ratio - (-math.sqrt(2.0) * math.tanh(0.5) / 2.0)) < 1e-12
    assert abs(ratio - (-0.3267661756012031)) < 1e-12


def test_squeezed_vacuum_ratio_recurrence():
    vec, _ = superposition.squeezed_vacuum(0.8, 24)
    amps = vec.amplitudes.real
    for k in range(10):
        n = 2 * k
        expected = -math.tanh(0.8) * math.sqrt((n + 1.0) * (n + 2.0)) / (n + 2.0)
        assert abs(amps[n + 2] / amps[n] - expected) < 1e-12


def test_squeezed_vacuum_matches_independent_expansion():
    for xi in (0.25, 0.5, 1.0, -0.7):
        vec, discarded = superposition.squeezed_vacuum(xi, 20)
        raw = _raw_even_coefficients(xi, 200)
        kept = float(np.sum(raw[:11] ** 2))
        assert abs(discarded - (1.0 - kept)) < 1e-12
        # renormalized amplitudes agree with the renormalized reference
        ref = raw[:11] / math.sqrt(kept)
        assert np.max(np.abs(vec.amplitudes[0::2].real - ref)) < 1e-12


def test_squeezed_vacuum_zero_xi_is_vacuum():
    vec, discarded = superposition.squeezed_vacuum(0.0, 4)
    assert vec.amplitudes[0] == 1.0 + 0.0j
    assert np.all(vec.amplitudes[1:] == 0.0)
    assert discarded == 0.0


def test_squeezed_vacuum_tail_weight_small_at_moderate_xi():
    _, discarded = superposition.squeezed_vacuum(0.5, 20)
    assert 0.0 < discarded < 1e-8


def test_squeezed_vacuum_variances_small_xi():
    vec, _ = superposition.squeezed_vacuum(0.25, 20)
    rho = fock.to_density(vec)
    v1 = fock.quadrature_stats(rho, 0.0).variance
    v2 = fock.quadrature_stats(rho, math.pi / 2.0).variance
    assert abs(v1 - math.exp(-0.5) / 4.0) < 1e-12
    assert abs(v2 - math.exp(0.5) / 4.0) < 1e-12


def test_squeezed_vacuum_sign_flip_swaps_quadratures():
    # S(-xi)|0> is the pi/2-rotated S(xi)|0>, exactly, even after truncation
    plus, _ = superposition.squeezed_vacuum(0.6, 22)
    minus, _ = superposition.squeezed_vacuum(-0.6, 22)
    rp = fock.to_density(plus)
    rm = fock.to_density(minus)
    v1p = fock.quadrature_stats(rp, 0.0).variance
    v2p = fock.quadrature_stats(rp, math.pi / 2.0).variance
    v1m = fock.quadrature_stats(rm, 0.0).variance
    v2m = fock.quadrature_stats(rm, math.pi / 2.0).variance
    assert abs(v1m - v2p) < 1e-12
    assert abs(v2m - v1p) < 1e-12
    assert v1m > 0.25 > v2m


def test_squeezed_vacuum_uncertainty_product():
    for xi in (0.1, 0.4, 0.8):
        vec, _ = superposition.squeezed_vacuum(xi, 24)
        rho = fock.to_density(vec)
        v1 = fock.quadrature_stats(rho, 0.0).variance
        v2 = fock.quadrature_stats(rho, math.pi / 2.0).variance
        assert v1 * v2 >= 1.0 / 16.0 - 1e-10


def test_squeezed_vacuum_parameter_validation():
    with pytest.raises(InvalidParameter):
        superposition.squeezed_vacuum(0.5, 2)  # cutoff too small
    with pytest.raises(InvalidParameter):
        superposition.squeezed_vacuum(0.5, 7)  # odd cutoff
    with pytest.raises(InvalidParameter):
        superposition.squeezed_vacuum(6.0, 20)  # beyond supported squeeze range
    with pytest.raises(InvalidParameter):
        superposition.squeezed_vacuum(float("nan"), 20)
