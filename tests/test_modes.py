"""Temporal modes, overlap integrals, linewidths, and the detection budget."""

import math

import numpy as np
import pytest
from scipy import integrate

from atomsqueeze import fock, modes, superposition
from atomsqueeze.errors import InvalidParameter, InvalidState
from atomsqueeze.modes import EmitterParams, TemporalMode
from atomsqueeze.superposition import SuperpositionSpec

TAU = 230e-9
OPTIMAL = SuperpositionSpec(beta_abs=0.5, rel_phase=0.0)


# -------------------------------------------------------------------- emitter

def test_emitter_from_lifetime_values():
    em = EmitterParams.from_lifetime(TAU)
    assert abs(em.gamma_rate - 1.0 / TAU) < 1e-6
    assert abs(em.linewidth_hz - 691978.0134430233) < 1e-6


def test_emitter_preset_matches_lifetime_constructor():
    em = EmitterParams.from_preset("yb2+_3p1")
    assert em == EmitterParams.from_lifetime(TAU)
    with pytest.raises(InvalidParameter):
        EmitterParams.from_preset("no-such-ion")


def test_emitter_invariants_enforced():
    with pytest.raises(InvalidParameter):
        EmitterParams.from_lifetime(0.0)
    with pytest.raises(InvalidParameter):
        EmitterParams.from_lifetime(float("inf"))
    with pytest.raises(InvalidParameter):  # rate inconsistent with lifetime
        EmitterParams(lifetime_tau=1.0, gamma_rate=1.1, linewidth_hz=1.0 / (2.0 * math.pi))
    with pytest.raises(InvalidParameter):  # linewidth inconsistent with lifetime
        EmitterParams(lifetime_tau=1.0, gamma_rate=1.0, linewidth_hz=1.0)


def test_emitter_rejects_nan_derived_rates():
    with pytest.raises(InvalidParameter):
        EmitterParams(lifetime_tau=1.0, gamma_rate=math.nan, linewidth_hz=1.0 / (2.0 * math.pi))
    with pytest.raises(InvalidParameter):
        EmitterParams(lifetime_tau=1.0, gamma_rate=1.0, linewidth_hz=math.nan)


def test_emitter_rejects_a_lifetime_whose_rate_overflows():
    # 1e-309 s is subnormal and 1 / 1e-309 is inf: the error names the lifetime
    with pytest.raises(InvalidParameter, match="lifetime 1e-309") as err:
        EmitterParams.from_lifetime(1e-309)
    assert "gamma_rate" not in str(err.value)
    # 1e-308 s is subnormal too, but its rate is finite and consistent
    assert EmitterParams.from_lifetime(1e-308).gamma_rate == 1e308


# -------------------------------------------------------------- temporal modes

def test_emitted_mode_envelope():
    gamma = 2.0
    m = modes.emitted_mode(gamma)
    assert m.rate == gamma / 2.0  # amplitude decays at half the intensity rate
    assert m.window == math.inf
    assert abs(m.amplitude(0.0) - math.sqrt(gamma)) < 1e-12
    assert abs(m.amplitude(1.0) - math.sqrt(gamma) * math.exp(-gamma / 2.0)) < 1e-12
    assert m.amplitude(-0.5) == 0.0


def test_truncated_mode_envelope():
    m = modes.lo_mode(2.0, window=3.0)
    assert m.shape == modes.TRUNCATED_EXPONENTIAL
    assert m.amplitude(3.5) == 0.0
    t = np.linspace(0.0, 3.0, 200001)
    norm = float(np.trapezoid(m.amplitude(t) ** 2, t))
    assert abs(norm - 1.0) < 1e-9


def test_mode_validation():
    with pytest.raises(InvalidParameter):
        modes.exponential_mode(0.0)
    with pytest.raises(InvalidParameter):
        modes.exponential_mode(1.0, window=-2.0)
    with pytest.raises(InvalidParameter):  # untruncated shape with a finite window
        TemporalMode(shape=modes.EXPONENTIAL, rate=1.0, window=5.0)
    with pytest.raises(InvalidParameter):
        TemporalMode(shape="gaussian", rate=1.0, window=math.inf)


def test_mode_overlap_rejects_unnormalized_inputs():
    class Doubled(TemporalMode):
        def amplitude(self, t):
            return 2.0 * super().amplitude(t)

    good = modes.exponential_mode(1.0)
    bad = object.__new__(Doubled)
    for name in ("shape", "rate", "window"):
        object.__setattr__(bad, name, getattr(good, name))
    with pytest.raises(InvalidParameter):
        modes.mode_overlap(good, bad)


# ------------------------------------------------------------------- overlaps

def test_matched_truncated_overlap_closed_form():
    for gamma in (1.0, 1.0 / TAU):
        em = modes.emitted_mode(gamma)
        for gt in (0.1, 1.0, 5.0, 10.0):
            lo = modes.lo_mode(gamma, gt / gamma)
            got = modes.mode_overlap(em, lo)
            assert abs(got - (1.0 - math.exp(-gt))) < 1e-9
            assert abs(modes.matched_overlap(gamma, gt / gamma) - (1.0 - math.exp(-gt))) < 1e-15


def test_untruncated_matched_overlap_is_unity():
    em = modes.emitted_mode(3.0)
    assert abs(modes.mode_overlap(em, modes.emitted_mode(3.0)) - 1.0) < 1e-12


def test_overlap_is_symmetric():
    a = modes.emitted_mode(1.0)
    b = modes.lo_mode(1.0, 2.5)
    assert abs(modes.mode_overlap(a, b) - modes.mode_overlap(b, a)) < 1e-12


def test_double_rate_lo_overlap_limit():
    # LO amplitude decaying twice as fast as the emitted envelope: 8/9 asymptotically
    gamma = 1.0
    em = modes.emitted_mode(gamma)
    fast = modes.exponential_mode(gamma)
    assert abs(modes.mode_overlap(em, fast) - 8.0 / 9.0) < 1e-9


def _quad_overlap(mode_a, mode_b):
    """|<f_a, f_b>|^2 by adaptive quadrature, time measured in units of 1/(a + b)."""
    scale = mode_a.rate + mode_b.rate
    upper = min(mode_a.window, mode_b.window) * scale

    def integrand(u):
        return mode_a.amplitude(u / scale) * mode_b.amplitude(u / scale)

    val, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=200)
    return (val / scale) ** 2


def test_closed_form_overlap_matches_quadrature_oracle():
    gamma = 1.0 / TAU
    lifetimes = (0.1, 1.0, 5.0, 20.0, math.inf)
    for ratio in (0.01, 0.3, 1.0, 2.0, 7.0):
        for wa in lifetimes:
            em = modes.exponential_mode(gamma / 2.0, wa * TAU)
            for wb in lifetimes:
                lo = modes.exponential_mode(ratio * gamma / 2.0, wb * TAU)
                assert abs(modes.mode_overlap(em, lo) - _quad_overlap(em, lo)) < 1e-12


def test_matched_overlap_validation():
    with pytest.raises(InvalidParameter):
        modes.matched_overlap(0.0, 1.0)
    with pytest.raises(InvalidParameter):
        modes.matched_overlap(1.0, -1.0)


# ------------------------------------------------------------------ linewidth

def test_linewidth_check_values():
    em = EmitterParams.from_lifetime(TAU)
    computed, ok = modes.linewidth_check(em)
    assert 691.9e3 <= computed < 692.0e3
    assert ok
    computed, ok = modes.linewidth_check(em, claimed_hz=700e3)
    assert ok  # within the 5% default band
    _, ok = modes.linewidth_check(em, claimed_hz=600e3)
    assert not ok
    with pytest.raises(InvalidParameter):
        modes.linewidth_check(em, claimed_hz=-1.0)


def test_lo_linewidth_requirement():
    em = EmitterParams.from_lifetime(TAU)
    assert abs(modes.lo_linewidth_requirement(em, 0.1) - 0.1 * em.linewidth_hz) < 1e-9
    with pytest.raises(InvalidParameter):
        modes.lo_linewidth_requirement(em, 0.0)
    with pytest.raises(InvalidParameter):
        modes.lo_linewidth_requirement(em, 1.0)


# --------------------------------------------------------------------- budget

def test_budget_dataclass_consistency_checks():
    with pytest.raises(InvalidParameter):
        modes.EfficiencyBudget(
            preset="custom", eta_collection=1.2, eta_overlap=1.0, eta_detector=1.0,
            eta_total=1.2, input_variance=0.25, detected_variance=0.25, detected_db=0.0,
        )
    with pytest.raises(InvalidState):  # total is not the product
        modes.EfficiencyBudget(
            preset="custom", eta_collection=0.5, eta_overlap=1.0, eta_detector=1.0,
            eta_total=0.7, input_variance=0.25, detected_variance=0.25, detected_db=0.0,
        )
    with pytest.raises(InvalidState):  # detected variance breaks the loss map
        modes.EfficiencyBudget(
            preset="custom", eta_collection=0.5, eta_overlap=1.0, eta_detector=1.0,
            eta_total=0.5, input_variance=0.1875, detected_variance=0.2, detected_db=-1.0,
        )


def test_budget_rejects_nan_variances():
    for source, detected in ((math.nan, 0.25), (0.25, math.nan)):
        with pytest.raises(InvalidState):
            modes.EfficiencyBudget(
                preset="custom", eta_collection=0.5, eta_overlap=1.0, eta_detector=1.0,
                eta_total=0.5, input_variance=source, detected_variance=detected, detected_db=0.0,
            )


def test_detected_squeezing_reference_budget():
    gamma = 1.0 / TAU
    budget = modes.detected_squeezing(
        OPTIMAL, 0.94, modes.emitted_mode(gamma), modes.lo_mode(gamma, 5.0 * TAU)
    )
    assert abs(budget.eta_overlap - (1.0 - math.exp(-5.0))) < 1e-9
    assert abs(budget.eta_total - 0.94 * budget.eta_overlap) < 1e-12
    assert abs(budget.input_variance - 3.0 / 16.0) < 1e-15
    expected_v = budget.eta_total * 3.0 / 16.0 + (1.0 - budget.eta_total) / 4.0
    assert abs(budget.detected_variance - expected_v) < 1e-12
    assert abs(budget.detected_db - (-1.1544057948120694)) < 1e-9


def test_detected_squeezing_with_detector_efficiency():
    em = modes.emitted_mode(1.0)
    budget = modes.detected_squeezing(OPTIMAL, 0.9, em, modes.lo_mode(1.0, 4.0), eta_detector=0.8)
    assert abs(budget.eta_total - 0.9 * budget.eta_overlap * 0.8) < 1e-12
    with pytest.raises(InvalidParameter):
        modes.detected_squeezing(OPTIMAL, 1.3, em, modes.lo_mode(1.0, 4.0))


def test_detected_variance_matches_explicit_loss_channel():
    # the scalar budget V -> eta V + (1 - eta)/4 against the Kraus channel on the actual state
    em = modes.emitted_mode(1.0)
    for beta, phase in ((0.5, 0.0), (0.3, 1.1), (math.sqrt(1.0 / 3.0), -2.0), (0.9, 0.4)):
        src = SuperpositionSpec(beta_abs=beta, rel_phase=phase)
        rho = fock.to_density(superposition.make_superposition(src))
        for window, ec, ed in ((0.5, 0.94, 1.0), (5.0, 0.6, 0.8), (math.inf, 1.0, 1.0)):
            budget = modes.detected_squeezing(src, ec, em, modes.exponential_mode(0.5, window), ed)
            v_channel = fock.quadrature_stats(fock.apply_loss(rho, budget.eta_total), phase).variance
            assert abs(v_channel - budget.detected_variance) <= 1e-12


def test_more_transmission_never_hurts_a_squeezed_source():
    em = modes.emitted_mode(1.0)
    lo = modes.lo_mode(1.0, 5.0)
    for beta in (0.3, 0.5, math.sqrt(1.0 / 3.0)):
        src = SuperpositionSpec(beta_abs=beta, rel_phase=0.0)
        variances = [
            modes.detected_squeezing(src, float(ec), em, lo).detected_variance
            for ec in np.linspace(0.5, 1.0, 11)
        ]
        assert all(b < a for a, b in zip(variances, variances[1:]))


def test_window_tradeoff_rows():
    em = EmitterParams.from_lifetime(TAU)
    windows = np.array([1.0, 2.0, 5.0]) * TAU
    rows = modes.window_tradeoff(OPTIMAL, 0.94, em, windows)
    assert rows.shape == (3, 3)
    for (w, overlap, db), gt in zip(rows, (1.0, 2.0, 5.0)):
        assert abs(overlap - (1.0 - math.exp(-gt))) < 1e-9
    # longer windows collect more of the mode: squeezing deepens monotonically
    assert rows[0, 2] > rows[1, 2] > rows[2, 2]


def test_window_tradeoff_validation():
    em = EmitterParams.from_lifetime(TAU)
    with pytest.raises(InvalidParameter):
        modes.window_tradeoff(OPTIMAL, 0.94, em, np.array([2.0, 1.0]) * TAU)
    with pytest.raises(InvalidParameter):
        modes.window_tradeoff(OPTIMAL, 0.94, em, np.array([0.0, 1.0]) * TAU)
