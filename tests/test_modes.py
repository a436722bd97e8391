"""Temporal modes, overlap integrals, linewidths, and the detection budget."""

import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from atomsqueeze import cli, fock, modes, superposition
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


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_emitter_rejects_a_non_finite_lifetime_built_directly(tau):
    with pytest.raises(InvalidParameter, match="lifetime must be finite"):
        EmitterParams(lifetime_tau=tau)


def test_emitter_rejects_a_lifetime_whose_rate_overflows():
    # 1e-309 s is subnormal and 1 / 1e-309 is inf: the error names the lifetime,
    # and a numpy scalar reads as the same number, with no numpy overflow warning
    for tau in (1e-309, np.float64(1e-309)):
        with pytest.raises(InvalidParameter, match="lifetime 1e-309") as err:
            EmitterParams.from_lifetime(tau)
        assert "gamma_rate" not in str(err.value)
    # 1e-308 s is subnormal too, but its rate is finite and consistent
    assert EmitterParams.from_lifetime(1e-308).gamma_rate == 1e308


@pytest.mark.filterwarnings("error")
def test_linewidth_of_a_huge_numpy_lifetime_warns_nothing():
    # 2 pi tau overflows to inf in Python floats, with no numpy overflow warning
    assert EmitterParams(np.float64(1e308)).linewidth_hz == 0.0
    for tau in (2.3e-7, np.float64(2.3e-7), 1e300, np.float64(1e-300)):
        assert EmitterParams(tau).linewidth_hz == 1.0 / (2.0 * math.pi * float(tau))


# -------------------------------------------------------------- temporal modes

def test_emitted_mode_envelope():
    gamma = 2.0
    m = modes.emitted_mode(gamma)
    assert m.rate == gamma / 2.0  # amplitude decays at half the intensity rate
    assert m.window == math.inf
    assert m.shape == modes.EXPONENTIAL
    assert TemporalMode(rate=1.0) == TemporalMode(1.0, math.inf)  # untruncated by default
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


@pytest.mark.filterwarnings("error")
def test_truncated_mode_is_zero_past_its_window():
    m = modes.lo_mode(2.0, window=3.0)
    assert np.array_equal(m.amplitude(np.array([3.0 + 1e-12, 50.0, 1e300, math.inf])), np.zeros(4))
    assert m.amplitude(3.0) == m.amplitude(np.array([3.0]))[0] > 0.0


@pytest.mark.parametrize("t", [math.nan, np.float64(math.nan), [math.nan, 1.0], np.array([[0.5], [math.nan]])])
def test_mode_amplitude_rejects_a_nan_time(t):
    # a NaN fails both window comparisons, so it used to read as the amplitude 0.0
    for mode in (modes.emitted_mode(2.0), modes.lo_mode(2.0, window=3.0)):
        with pytest.raises(InvalidParameter, match="amplitude time t must not be NaN"):
            mode.amplitude(t)


def test_mode_rejects_a_rate_whose_norm_overflows():
    # 2 * 1e308 overflows to inf, so the L2 norm is inf * 0 = NaN
    with pytest.raises(InvalidState, match="mode L2 norm is nan"):
        TemporalMode(1e308)


def test_mode_validation():
    with pytest.raises(InvalidParameter):
        TemporalMode(0.0)
    with pytest.raises(InvalidParameter):
        TemporalMode(1.0, window=-2.0)


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
    fast = TemporalMode(gamma)
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
            em = TemporalMode(gamma / 2.0, wa * TAU)
            for wb in lifetimes:
                lo = TemporalMode(ratio * gamma / 2.0, wb * TAU)
                assert abs(modes.mode_overlap(em, lo) - _quad_overlap(em, lo)) < 1e-12


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.floats(-300.0, 300.0), st.floats(-8.0, 8.0))
def test_untruncated_overlap_is_the_closed_form(log_a, log_ratio):
    # <f_a, f_b> = 2 sqrt(a b) / (a + b) for untruncated modes of amplitude rates a and b
    a = 10.0 ** log_a
    b = a * 10.0 ** log_ratio
    assume(2.0 * b < math.inf)  # a rate whose norm integral overflows builds no mode
    want = 4.0 * (a / (a + b)) * (b / (a + b))
    assert abs(modes.mode_overlap(TemporalMode(a), TemporalMode(b)) - want) <= 16 * 2.0**-52 * want


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0))
def test_rate_matched_truncated_overlap_is_the_closed_form(log_gamma, log_gamma_window):
    gamma = 10.0 ** log_gamma
    window = 10.0 ** log_gamma_window / gamma
    got = modes.mode_overlap(modes.emitted_mode(gamma), modes.lo_mode(gamma, window))
    assert abs(got - modes.matched_overlap(gamma, window)) <= 16 * 2.0**-52


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


def test_linewidth_check_accepts_a_deviation_equal_to_its_tolerance():
    # a claim of twice the linewidth deviates by exactly the linewidth, which
    # is exactly rel_tol * claim at rel_tol = 1/2, and by more below it
    em = EmitterParams.from_lifetime(TAU)
    computed = em.linewidth_hz
    assert modes.linewidth_check(em, claimed_hz=2.0 * computed, rel_tol=0.5) == (computed, True)
    assert modes.linewidth_check(em, claimed_hz=2.0 * computed, rel_tol=math.nextafter(0.5, 0.0)) == (computed, False)


def test_decay_integral_takes_the_closed_form_at_the_smallest_normal_exponent():
    # rate * window rounds to exactly sys.float_info.min here; the closed form
    # gives min / rate, the correctly rounded integral, one subnormal step
    # below the window that the branch for smaller exponents returns
    rate, window = 0.75, math.ldexp(6004799503160662, -1074)
    assert rate * window == sys.float_info.min
    assert modes._decay_integral(rate, window) == sys.float_info.min / rate == math.nextafter(window, 0.0)
    below = math.nextafter(window, 0.0) / 2.0
    assert rate * below < sys.float_info.min and modes._decay_integral(rate, below) == below


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_linewidth_check_rejects_a_non_finite_claim_or_tolerance(bad):
    # abs(computed - inf) <= 0.05 * inf is inf <= inf, which would accept any claim
    em = EmitterParams.from_lifetime(TAU)
    with pytest.raises(InvalidParameter, match="finite"):
        modes.linewidth_check(em, claimed_hz=bad)
    with pytest.raises(InvalidParameter, match="finite"):
        modes.linewidth_check(em, claimed_hz=700e3, rel_tol=bad)


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
            preset="custom", eta_collection=1.2, eta_overlap=1.0, eta_detector=1.0, input_variance=0.25,
        )


def test_budget_rejects_nan_variances():
    with pytest.raises(InvalidState, match="input variance must be finite and > 0, got nan"):
        modes.EfficiencyBudget(
            preset="custom", eta_collection=0.5, eta_overlap=1.0, eta_detector=1.0, input_variance=math.nan,
        )


def test_budget_derives_its_total_and_outcome():
    budget = modes.EfficiencyBudget(
        preset="custom", eta_collection=0.3, eta_overlap=0.7, eta_detector=0.9, input_variance=0.1875,
    )
    assert budget.eta_total == 0.3 * 0.7 * 0.9
    eta = budget.eta_total
    assert budget.detected_variance == eta * 0.1875 + (1.0 - eta) * fock.VACUUM_VARIANCE
    assert budget.detected_db == fock.variance_to_db(budget.detected_variance)


@pytest.mark.parametrize("variance", [0.0, -0.1, math.inf])
def test_budget_rejects_a_variance_outside_its_domain(variance):
    with pytest.raises(InvalidState, match="input variance must be finite and > 0"):
        modes.EfficiencyBudget(
            preset="custom", eta_collection=0.5, eta_overlap=1.0, eta_detector=1.0, input_variance=variance,
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
            budget = modes.detected_squeezing(src, ec, em, TemporalMode(0.5, window), ed)
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


def _per_window_tradeoff(source, eta_collection, emitter, windows, eta_detector=1.0) -> np.ndarray:
    """window_tradeoff as it filled an ndarray window by window, before its rows came from the plain-row core."""
    em = modes.emitted_mode(emitter.gamma_rate)
    rows = np.empty((windows.size, 3))
    for i, w in enumerate(windows):
        lo = modes.lo_mode(emitter.gamma_rate, float(w))
        budget = modes.detected_squeezing(source, eta_collection, em, lo, eta_detector)
        rows[i] = (w, budget.eta_overlap, budget.detected_db)
    return rows


def test_window_tradeoff_matches_the_per_window_oracle():
    # both run the same math-module arithmetic per window, so they agree bit for bit
    rng = np.random.default_rng(2021)
    for _ in range(40):
        source = SuperpositionSpec(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        emitter = EmitterParams.from_lifetime(float(10.0 ** rng.uniform(-10, -5)))
        lo = float(10.0 ** rng.uniform(-3, 1))
        windows = np.linspace(lo, lo * float(1.0 + 10.0 ** rng.uniform(-3, 2)), int(rng.integers(1, 500)))
        eta_collection, eta_detector = (float(x) for x in rng.uniform(0.1, 1.0, size=2))
        args = (source, eta_collection, emitter, windows * emitter.lifetime_tau, eta_detector)
        rows, want = modes.window_tradeoff(*args), _per_window_tradeoff(*args)
        assert rows.shape == want.shape
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))


def _outcome(call):
    """A call's rows as int64 bits, or the class and message of what it raised."""
    try:
        return call().view(np.int64).tolist()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [5.6e-309, 1e-300, 1e-9, 230e-9, 1.0, 1e100, 1e300, 1.7e308])
def test_window_tradeoff_matches_the_per_window_oracle_on_edge_windows(tau):
    # subnormal, smallest-normal and largest windows, at both ends of every efficiency
    emitter = EmitterParams.from_lifetime(tau)
    windows = (5e-324, 1e-323, 2.2250738585072014e-308, 1e-300, 1e-12, 1e-7, 1.0, 1e10, 1e300,
               1.7976931348623157e308)
    for w, eta_c, eta_d, beta in itertools.product(windows, (0.0, 5e-324, 0.5, 1.0), (0.0, 0.37, 1.0), (0.0, 0.5, 1.0)):
        args = (SuperpositionSpec(beta, 0.0), eta_c, emitter, np.array([w]), eta_d)
        assert _outcome(lambda: modes.window_tradeoff(*args)) == _outcome(lambda: _per_window_tradeoff(*args))


def test_window_sweep_at_its_steps_cap_matches_the_per_window_oracle(tmp_path):
    out = tmp_path / "w.csv"
    assert cli.main(["window-sweep", "--collection", "0.94", "--steps", "100000", "--out", str(out)]) == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert body[0] == "window_s,window_lifetimes,eta_overlap,detected_db"
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    emitter = EmitterParams.from_lifetime(230.0 * 1e-9)
    want = _per_window_tradeoff(OPTIMAL, 0.94, emitter, rows[:, 0])
    want = np.column_stack([want[:, 0], want[:, 0] / emitter.lifetime_tau, want[:, 1:]])
    assert rows.shape == (100_000, 4)
    assert np.array_equal(rows.view(np.int64), want.view(np.int64))


def test_window_tradeoff_builds_one_mode_and_one_budget_per_window(monkeypatch):
    # the sweep builds the emitted mode once and reads each rate-matched LO from one integral
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("_decay_integral", "lo_mode", "mode_overlap", "detected_squeezing"):
        monkeypatch.setattr(modes, name, counted(name, getattr(modes, name)))
    for cls in (TemporalMode, modes.EfficiencyBudget):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    windows = np.linspace(0.5, 10.0, 1000) * TAU
    modes.window_tradeoff(OPTIMAL, 0.94, EmitterParams.from_lifetime(TAU), windows)
    # the emitted mode's own check takes two integrals, and each window at most two
    assert calls.pop("_decay_integral") <= 2 + 2 * 1000
    assert calls == {"TemporalMode": 1, "EfficiencyBudget": 1000}


def test_window_tradeoff_takes_one_integral_per_window(monkeypatch):
    # the emitted mode's check takes two integrals and its normalisation one,
    # read once before the loop; then each window takes its own
    seen = []
    real = modes._decay_integral
    monkeypatch.setattr(modes, "_decay_integral", lambda rate, window: seen.append(window) or real(rate, window))
    windows = np.linspace(0.5, 10.0, 1000) * TAU
    modes.window_tradeoff(OPTIMAL, 0.94, EmitterParams.from_lifetime(TAU), windows)
    assert len(seen) == 1003
    assert seen == [math.inf] * 3 + windows.tolist()


def test_window_tradeoff_validation():
    em = EmitterParams.from_lifetime(TAU)
    with pytest.raises(InvalidParameter):
        modes.window_tradeoff(OPTIMAL, 0.94, em, np.array([2.0, 1.0]) * TAU)
    with pytest.raises(InvalidParameter):
        modes.window_tradeoff(OPTIMAL, 0.94, em, np.array([0.0, 1.0]) * TAU)


def test_window_tradeoff_rejects_a_repeated_window():
    # a zero step is not ascending: "np.diff(ws) >= 0.0" would give three rows here
    with pytest.raises(InvalidParameter, match="strictly ascending"):
        modes.window_tradeoff(OPTIMAL, 0.94, EmitterParams.from_lifetime(TAU), np.array([1e-7, 1e-7, 2e-7]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("call", "message"), [
    (lambda m, em: m.amplitude("0.5"), "amplitude time t must be real numbers, got dtype <U3"),
    (lambda m, em: m.amplitude(1j), "amplitude time t must be real numbers, got dtype complex128"),
    (lambda m, em: m.amplitude([[0.0, 1.0], [2.0]]), "amplitude time t must be a regular array of numbers"),
    (lambda m, em: modes.window_tradeoff(OPTIMAL, 0.94, em, ["1", "2"]), "windows must be real numbers, got dtype <U1"),
    (lambda m, em: modes.window_tradeoff(OPTIMAL, 0.94, em, [1j, 2j]),
     "windows must be real numbers, got dtype complex128"),
    (lambda m, em: modes.window_tradeoff(OPTIMAL, 0.94, em, [[1e-7], []]),
     "windows must be a regular array of numbers"),
])
def test_mode_times_and_windows_must_be_regular_arrays_of_real_numbers(call, message):
    # a string is no longer parsed as a time, and a complex one raises no bare TypeError
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call(modes.emitted_mode(1.0), EmitterParams.from_lifetime(TAU))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tail", [[math.inf], [math.inf, math.inf], [math.nan], [2.0, math.nan]])
def test_window_tradeoff_rejects_a_non_finite_window(tail):
    # [1, inf, inf] has the NaN step inf - inf, which a "step <= 0" test lets through
    em = EmitterParams.from_lifetime(TAU)
    with pytest.raises(InvalidParameter, match="finite positive times"):
        modes.window_tradeoff(OPTIMAL, 0.94, em, np.array([1.0, *tail]) * TAU)


def test_closed_forms_never_sample_the_envelope(monkeypatch, tmp_path):
    # a mode is checked once, when it is built; the closed forms read its
    # normalisation, so they run unchanged with amplitude() unavailable
    em = EmitterParams.from_lifetime(TAU)
    windows = np.linspace(0.5, 10.0, 50) * TAU
    readme = [
        ["budget", "--collection", "0.94", "--lifetime-ns", "230", "--window-lifetimes", "5"],
        ["window-sweep", "--collection", "0.94", "--min-lifetimes", "0.5", "--max-lifetimes", "10", "--steps", "20"],
    ]

    def run(tag):
        emitted, lo = modes.emitted_mode(em.gamma_rate), modes.lo_mode(em.gamma_rate, 5.0 * TAU)
        texts = []
        for i, argv in enumerate(readme):
            out = tmp_path / f"{tag}{i}.json"
            assert cli.main([*argv, "--out", str(out)]) == 0
            texts.append("\n".join(line for line in out.read_text().splitlines() if "timestamp" not in line))
        return (
            emitted, lo, modes.mode_overlap(emitted, lo),
            modes.detected_squeezing(OPTIMAL, 0.94, emitted, lo),
            modes.window_tradeoff(OPTIMAL, 0.94, em, windows).tolist(), texts,
        )

    before = run("before")

    def unavailable(self, t):
        raise AssertionError("TemporalMode.amplitude was called")

    monkeypatch.setattr(TemporalMode, "amplitude", unavailable)
    assert run("after") == before
