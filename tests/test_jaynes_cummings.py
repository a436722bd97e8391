"""Resonant atom-field dynamics, closed forms, and the dipole criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomsqueeze import fock, jaynes_cummings as jc, superposition
from atomsqueeze.closed_forms import _linspace, _transient_rows
from atomsqueeze.errors import InvalidParameter, InvalidState, NotSupported
from atomsqueeze.jaynes_cummings import AtomPrep, JCParams, JointAtomFieldState
import oracles

RESONANT = JCParams(omega0=1.7, omega=1.7, coupling=0.9)
ZERO_FREQ = JCParams(omega0=0.0, omega=0.0, coupling=1.0)


# ------------------------------------------------------------------ validation

def test_atom_prep_angle_ranges():
    AtomPrep(theta=0.0, phi=0.0)
    AtomPrep(theta=2.0 * math.pi - 1e-9, phi=6.28)
    with pytest.raises(InvalidParameter):
        AtomPrep(theta=-0.1, phi=0.0)
    with pytest.raises(InvalidParameter):
        AtomPrep(theta=2.0 * math.pi, phi=0.0)
    with pytest.raises(InvalidParameter):
        AtomPrep(theta=1.0, phi=7.0)


def test_jc_params_validation():
    with pytest.raises(InvalidParameter):
        JCParams(omega0=1.0, omega=1.0, coupling=0.0)
    with pytest.raises(InvalidParameter):
        JCParams(omega0=-1.0, omega=1.0, coupling=1.0)
    assert JCParams(omega0=2.0, omega=2.0, coupling=1.0).resonant
    assert not JCParams(omega0=2.0, omega=2.1, coupling=1.0).resonant


def test_joint_state_validation():
    with pytest.raises(InvalidState):  # shape mismatch
        JointAtomFieldState(np.array([1.0, 0.0j]), np.array([0.0j, 0.0, 0.0]))
    with pytest.raises(InvalidState):  # bad norm
        JointAtomFieldState(np.array([1.0, 0.0j]), np.array([1.0, 0.0j]))
    with pytest.raises(InvalidState):  # too small
        JointAtomFieldState(np.array([1.0 + 0.0j]), np.array([0.0j]))


def test_joint_state_rejects_nan_amplitude():
    with pytest.raises(InvalidState):
        JointAtomFieldState(np.array([math.nan, 0.0j]), np.array([1.0, 0.0j]))


def test_non_finite_times_rejected():
    prep = AtomPrep(1.0, 0.0)
    for t in (math.nan, math.inf, -0.5):
        with pytest.raises(InvalidParameter, match="time must be finite"):
            jc.evolve_resonant(prep, RESONANT, t)
        with pytest.raises(InvalidParameter, match="time must be finite"):
            oracles.numeric_evolve(prep, RESONANT, t, 0.005)
        with pytest.raises(InvalidParameter, match="time must be finite"):
            oracles.field_variances(prep, RESONANT, t)


def test_off_resonance_not_supported():
    detuned = JCParams(omega0=1.0, omega=1.2, coupling=0.5)
    prep = AtomPrep(theta=1.0, phi=0.0)
    with pytest.raises(NotSupported):
        jc.evolve_resonant(prep, detuned, 1.0)
    with pytest.raises(NotSupported):
        oracles.numeric_evolve(prep, detuned, 1.0, 0.01)
    with pytest.raises(NotSupported):
        oracles.field_variances(prep, detuned, 1.0)


# ------------------------------------------------------------------- dynamics

def test_evolve_resonant_amplitudes():
    theta, phi, t = 2.0 * math.pi / 3.0, 0.4, 2.3
    prep = AtomPrep(theta=theta, phi=phi)
    state = jc.evolve_resonant(prep, RESONANT, t)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    lt = RESONANT.coupling * t
    rot = np.exp(-1j * RESONANT.omega * t)
    assert abs(state.amp_e[0] - c * math.cos(lt) * rot) < 1e-14
    assert abs(state.amp_e[1]) == 0.0
    assert abs(state.amp_g[0] - s * np.exp(1j * phi)) < 1e-14
    assert abs(state.amp_g[1] - (-1j) * c * math.sin(lt) * rot) < 1e-14
    assert state.n_max == 1


def test_evolve_resonant_rejects_negative_time():
    with pytest.raises(InvalidParameter):
        jc.evolve_resonant(AtomPrep(1.0, 0.0), RESONANT, -0.5)


def test_excitation_exchange_period():
    # excited-state population returns after coupling*t = pi
    prep = AtomPrep(theta=0.0, phi=0.0)
    t_period = math.pi / RESONANT.coupling
    state = jc.evolve_resonant(prep, RESONANT, t_period)
    assert abs(abs(state.amp_e[0]) - 1.0) < 1e-12
    half = jc.evolve_resonant(prep, RESONANT, t_period / 2.0)
    assert abs(half.amp_e[0]) < 1e-12
    assert abs(abs(half.amp_g[1]) - 1.0) < 1e-12


def test_jc_hamiltonian_structure():
    h = oracles.jc_hamiltonian(RESONANT, 1)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    w0, w, g = RESONANT.omega0, RESONANT.omega, RESONANT.coupling
    expected = np.array(
        [
            [w0 / 2.0, 0.0, 0.0, g],
            [0.0, w + w0 / 2.0, 0.0, 0.0],
            [0.0, 0.0, -w0 / 2.0, 0.0],
            [g, 0.0, 0.0, w - w0 / 2.0],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(h - expected)) < 1e-15
    with pytest.raises(InvalidParameter):
        oracles.jc_hamiltonian(RESONANT, 0)


def test_numeric_matches_closed_form():
    prep = AtomPrep(theta=2.0 * math.pi / 3.0, phi=0.4)
    t = 7.0
    numeric = oracles.numeric_evolve(prep, RESONANT, t, dt=0.005)
    exact = jc.evolve_resonant(prep, RESONANT, t)
    assert np.max(np.abs(numeric.amp_e[:2] - exact.amp_e)) < 1e-8
    assert np.max(np.abs(numeric.amp_g[:2] - exact.amp_g)) < 1e-8
    # population never climbs the truncation ladder
    assert np.max(np.abs(numeric.amp_e[2:])) < 1e-10
    assert np.max(np.abs(numeric.amp_g[2:])) < 1e-10


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    theta=st.floats(0.0, math.tau, exclude_max=True),
    phi=st.floats(0.0, math.tau, exclude_max=True),
    t=st.floats(0.0, math.tau),
)
def test_numeric_matches_closed_form_for_any_preparation(theta, phi, t):
    # the RK4 oracle at dt = 0.005 against the closed form, within the grid test's bounds above
    prep = AtomPrep(theta, phi)
    numeric = oracles.numeric_evolve(prep, RESONANT, t, dt=0.005)
    exact = jc.evolve_resonant(prep, RESONANT, t)
    assert np.max(np.abs(numeric.amp_e[:2] - exact.amp_e)) < 1e-8
    assert np.max(np.abs(numeric.amp_g[:2] - exact.amp_g)) < 1e-8
    assert np.max(np.abs(numeric.amp_e[2:])) < 1e-10
    assert np.max(np.abs(numeric.amp_g[2:])) < 1e-10


def test_numeric_norm_drift_stays_tiny():
    prep = AtomPrep(theta=1.9, phi=5.1)
    state = oracles.numeric_evolve(prep, ZERO_FREQ, 10.0, dt=0.01)
    norm = math.sqrt(float(np.sum(np.abs(state.amp_e) ** 2) + np.sum(np.abs(state.amp_g) ** 2)))
    assert abs(norm - 1.0) < 1e-9


def test_numeric_step_matrix_is_the_four_stage_rk4_step():
    # the stage loop the step matrix replaces, kept as the oracle
    prep = AtomPrep(theta=1.9, phi=5.1)
    t, dt = 0.5, 0.01
    dim = oracles.NUMERIC_N_MAX + 1
    h = oracles.jc_hamiltonian(RESONANT, oracles.NUMERIC_N_MAX)
    psi = np.zeros(2 * dim, dtype=complex)
    psi[0] = math.cos(prep.theta / 2.0)
    psi[dim] = math.sin(prep.theta / 2.0) * np.exp(1j * prep.phi)
    n_steps = math.ceil(t / dt)
    step = t / n_steps
    for _ in range(n_steps):
        k1 = -1j * (h @ psi)
        k2 = -1j * (h @ (psi + 0.5 * step * k1))
        k3 = -1j * (h @ (psi + 0.5 * step * k2))
        k4 = -1j * (h @ (psi + step * k3))
        psi = psi + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    psi = psi * np.exp(-1j * RESONANT.omega * t / 2.0)
    state = oracles.numeric_evolve(prep, RESONANT, t, dt)
    assert np.max(np.abs(np.concatenate([state.amp_e, state.amp_g]) - psi)) < 1e-14


def test_numeric_evolve_at_t_zero_is_the_initial_state_exactly():
    prep = AtomPrep(theta=1.9, phi=5.1)
    state = oracles.numeric_evolve(prep, RESONANT, 0.0, 0.01)
    exact = jc.evolve_resonant(prep, RESONANT, 0.0)
    assert np.array_equal(state.amp_e[:2], exact.amp_e)
    assert np.array_equal(state.amp_g[:2], exact.amp_g)
    assert not np.any(state.amp_e[2:]) and not np.any(state.amp_g[2:])


@pytest.mark.parametrize(("t", "dt"), [(1e300, 1e-3), (1.7e308, 1e-4), (1000.0005, 1e-3)])
def test_numeric_evolve_caps_its_step_count_before_any_step(t, dt, monkeypatch):
    # t / dt = 1e303, an overflowed inf, and 1,000,000.5: each is past MAX_RK4_STEPS
    def forbidden(*args):
        raise AssertionError("the step matrix was built for a rejected step count")

    monkeypatch.setattr(oracles, "jc_hamiltonian", forbidden)
    with pytest.raises(InvalidParameter, match="RK4 steps"):
        oracles.numeric_evolve(AtomPrep(theta=1.0, phi=0.0), ZERO_FREQ, t, dt)


def test_numeric_step_validation():
    prep = AtomPrep(theta=1.0, phi=0.0)
    with pytest.raises(InvalidParameter):
        oracles.numeric_evolve(prep, RESONANT, 1.0, dt=0.0)
    with pytest.raises(InvalidParameter):
        oracles.numeric_evolve(prep, RESONANT, 1.0, dt=0.02 / RESONANT.coupling)


def test_reduced_field_density_values():
    theta, phi = 1.2, 0.7
    prep = AtomPrep(theta=theta, phi=phi)
    state = jc.evolve_resonant(prep, ZERO_FREQ, 0.9)
    rho = oracles.reduced_field_density(state).matrix
    c, s, lt = math.cos(theta / 2.0), math.sin(theta / 2.0), 0.9
    assert abs(rho[0, 0] - (c * c * math.cos(lt) ** 2 + s * s)) < 1e-14
    assert abs(rho[1, 1] - c * c * math.sin(lt) ** 2) < 1e-14
    expected_coh = s * np.exp(1j * phi) * np.conj(-1j * c * math.sin(lt))
    assert abs(rho[0, 1] - expected_coh) < 1e-14


# ---------------------------------------------------------------- closed forms

def test_field_variances_match_closed_forms_on_grid():
    for theta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            prep = AtomPrep(float(theta), float(phi))
            for lt in np.linspace(0.0, 2.0 * math.pi, 8):
                v1, v2 = oracles.field_variances(prep, ZERO_FREQ, float(lt))
                c1, c2 = jc.closed_form_variances(prep, float(lt))
                assert abs(v1 - c1) < 1e-12
                assert abs(v2 - c2) < 1e-12


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    theta=st.floats(0.0, math.tau, exclude_max=True),
    phi=st.floats(0.0, math.tau, exclude_max=True),
    coupling=st.floats(1e-3, 1e3),
    t=st.just(0.0) | st.floats(1e-6, 1e6),
)
def test_field_variances_match_closed_forms_for_any_preparation(theta, phi, coupling, t):
    # the reduced density matrix of the closed-form joint state, read through
    # quadrature_stats, within the grid test's bound above
    prep = AtomPrep(theta, phi)
    v1, v2 = oracles.field_variances(prep, JCParams(omega0=1.7, omega=1.7, coupling=coupling), t)
    c1, c2 = jc.closed_form_variances(prep, coupling * t)
    assert abs(v1 - c1) < 1e-12
    assert abs(v2 - c2) < 1e-12


def test_variance_sum_is_phase_independent():
    for theta in (0.4, 1.5, 2.9, 4.4):
        prep = AtomPrep(theta, 1.1)
        c4 = math.cos(theta / 2.0) ** 4
        for lt in (0.3, 1.0, 2.2):
            v1, v2 = jc.closed_form_variances(prep, lt)
            assert abs((v1 + v2) - (0.5 + c4 * math.sin(lt) ** 2)) < 1e-14


def test_ground_weighted_preparation_transient_curve():
    # theta = 2pi/3, phi = pi/2 dips to 3/16 at the quarter period
    prep = AtomPrep(theta=2.0 * math.pi / 3.0, phi=math.pi / 2.0)
    for lt in np.linspace(0.0, math.pi, 101):
        v1 = jc.closed_form_variance_at(prep, float(lt), 0.0)
        assert abs(v1 - (0.25 - math.sin(lt) ** 2 / 16.0)) < 1e-15
    assert abs(jc.closed_form_variance_at(prep, math.pi / 2.0, 0.0) - 3.0 / 16.0) < 1e-15


def test_min_field_variance_bounds_dense_scan():
    for theta in (0.8, 2.0 * math.pi / 3.0, 2.4, 4.1):
        prep = AtomPrep(theta, 0.9)
        floor = jc.min_field_variance(prep)
        scan = min(
            jc.closed_form_variance_at(prep, float(lt), float(pl))
            for lt in np.linspace(0.0, math.pi, 181)
            for pl in np.linspace(0.0, math.pi, 181)
        )
        assert scan >= floor - 1e-12
        assert scan <= floor + 1e-3


# ------------------------------------------------------------ dipole criterion

def _dipole_oracle(theta, phi):
    """Brute-force 2x2 evaluation of both criterion quantities."""
    psi = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    d = np.array([[0.0, 0.0], [1.0, 0.0]])  # lowering |g><e| in (|e>, |g>) order
    ddag = d.conj().T

    def ev(op):
        return complex(psi.conj() @ op @ psi)

    comm = ev(ddag @ d - d @ ddag).real
    d1 = (d + ddag) / 2.0
    normal_second = (ev(d @ d) + 2.0 * ev(ddag @ d) + ev(ddag @ ddag)).real / 4.0
    return comm, normal_second - ev(d1).real ** 2


def test_dipole_check_reference_point():
    check = jc.dipole_squeezing_check(AtomPrep(2.0 * math.pi / 3.0, 0.0))
    assert abs(check.commutator_expectation - (-0.5)) < 1e-15
    assert abs(check.normally_ordered_var_d1 - (-0.0625)) < 1e-15
    assert check.field_squeezing_predicted


def test_dipole_check_negative_cases():
    # excited-weighted atom: positive commutator expectation
    assert not jc.dipole_squeezing_check(AtomPrep(math.pi / 3.0, 0.0)).field_squeezing_predicted
    # ground-weighted but wrong dipole phase: positive normal-ordered variance
    check = jc.dipole_squeezing_check(AtomPrep(2.0 * math.pi / 3.0, math.pi / 2.0))
    assert check.commutator_expectation < 0.0
    assert check.normally_ordered_var_d1 > 0.0
    assert not check.field_squeezing_predicted


def test_dipole_check_derives_its_prediction():
    # a hand-built record cannot claim a prediction its figures contradict
    assert jc.DipoleCheck(0.5, 0.5).field_squeezing_predicted is False
    assert jc.DipoleCheck(-0.5, -0.1).field_squeezing_predicted is True
    # each figure must clear the round-off guard, not merely be negative
    assert jc.DipoleCheck(-0.5, -jc.PREDICTION_GUARD).field_squeezing_predicted is False


@pytest.mark.parametrize("figures", [(np.float64(math.nan), 0.0), (-0.5, np.float64(-math.inf))])
def test_dipole_check_shows_non_finite_figures_as_python_numbers(figures):
    shown = " and ".join(repr(float(f)) for f in figures)
    with pytest.raises(InvalidState, match=rf"^dipole criterion figures must be finite, got {shown}$"):
        jc.DipoleCheck(*figures)


def test_dipole_check_boundary_is_not_a_prediction():
    # theta a hair past pi: the formal dip is ~1e-32, unresolvable against 1/4
    theta = float(np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)[25])
    assert theta != math.pi  # round-off pushes the grid point off the pole
    check = jc.dipole_squeezing_check(AtomPrep(theta, 0.0))
    assert check.normally_ordered_var_d1 < 0.0  # raw value is (barely) negative
    assert not check.field_squeezing_predicted


def test_dipole_check_matches_bruteforce_on_grid():
    for theta in np.linspace(0.0, 2.0 * math.pi, 25, endpoint=False):
        for phi in np.linspace(0.0, 2.0 * math.pi, 25, endpoint=False):
            check = jc.dipole_squeezing_check(AtomPrep(float(theta), float(phi)))
            comm, nvar = _dipole_oracle(float(theta), float(phi))
            assert abs(check.commutator_expectation - comm) < 1e-12
            assert abs(check.normally_ordered_var_d1 - nvar) < 1e-12
            if check.normally_ordered_var_d1 < 0.0:
                assert check.commutator_expectation < 0.0


# ----------------------------------------------------- quarter-period handoff

def test_quarter_period_state_reconstructs_field():
    for theta in (0.7, 2.0 * math.pi / 3.0, 2.8, 4.6, 5.9):
        for phi in (0.0, 1.3, math.pi, 5.0):
            prep = AtomPrep(theta, phi)
            spec, global_phase = jc.field_superposition_at_quarter_period(prep)
            rebuilt = np.exp(1j * global_phase) * superposition.make_superposition(spec).amplitudes
            joint = jc._rotating_joint(prep, math.pi / 2.0)
            assert np.max(np.abs(joint.amp_e)) < 1e-15  # atom fully in the ground state
            assert np.max(np.abs(rebuilt - joint.amp_g)) < 1e-12


def test_quarter_period_variance_consistency():
    prep = AtomPrep(2.0 * math.pi / 3.0, math.pi / 2.0)
    spec, _ = jc.field_superposition_at_quarter_period(prep)
    v1 = superposition.superposition_variance(spec, 1)
    assert abs(v1 - jc.closed_form_variance_at(prep, math.pi / 2.0, 0.0)) < 1e-12
    assert abs(v1 - 3.0 / 16.0) < 1e-12


# -------------------------------------------------------------------- sweeps

def test_transient_sweep_rows():
    prep = AtomPrep(2.0 * math.pi / 3.0, math.pi / 2.0)
    rows = jc.transient_sweep(prep, ZERO_FREQ, math.pi, 9)
    assert rows.shape == (9, 5)
    assert np.allclose(rows[:, 0], np.linspace(0.0, math.pi, 9), atol=1e-15)
    for t, v1, v2, db1, db2 in rows:
        e1, e2 = jc.closed_form_variances(prep, float(t))
        assert abs(v1 - e1) < 1e-12
        assert abs(v2 - e2) < 1e-12
        assert abs(db1 - fock.variance_to_db(v1)) < 1e-12
        assert abs(db2 - fock.variance_to_db(v2)) < 1e-12


def test_transient_sweep_validation():
    prep = AtomPrep(1.0, 0.0)
    with pytest.raises(InvalidParameter):
        jc.transient_sweep(prep, ZERO_FREQ, 0.0, 5)
    with pytest.raises(InvalidParameter):
        jc.transient_sweep(prep, ZERO_FREQ, 1.0, 1)


def test_transient_sweep_rejects_non_finite_grid():
    prep = AtomPrep(1.0, 0.0)
    fast = JCParams(omega0=0.0, omega=0.0, coupling=10.0)
    for t_max, params in ((math.nan, ZERO_FREQ), (math.inf, ZERO_FREQ), (1e308, fast)):
        with pytest.raises(InvalidParameter, match="t_max"):
            jc.transient_sweep(prep, params, t_max, 5)


def test_closed_form_variance_broadcasts_and_keeps_scalar_floats():
    prep = AtomPrep(2.0, 0.7)
    lts = np.linspace(0.0, 2.0 * math.pi, 13)
    grid = jc.closed_form_variance_at(prep, lts, 0.3)
    assert grid.shape == lts.shape
    for lt, v in zip(lts, grid):
        scalar = jc.closed_form_variance_at(prep, float(lt), 0.3)
        assert type(scalar) is float
        assert abs(scalar - v) < 1e-15
    v1, v2 = jc.closed_form_variances(prep, 1.1)
    assert type(v1) is float and type(v2) is float


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite_inputs(bad):
    prep = AtomPrep(2.0, 0.7)
    with pytest.raises(InvalidParameter, match="lam_t"):
        jc.closed_form_variances(prep, bad)
    with pytest.raises(InvalidParameter, match="lam_t"):
        jc.closed_form_variances(prep, np.array([0.0, 1.0, bad]))
    with pytest.raises(InvalidParameter, match="lam_t"):
        jc.closed_form_variance_at(prep, np.float64(bad), 0.0)
    with pytest.raises(InvalidParameter, match="LO phase must be finite"):
        jc.closed_form_variance_at(prep, 1.0, bad)
    with pytest.raises(InvalidParameter, match="LO phase must be finite"):
        jc.closed_form_variance_at(prep, np.linspace(0.0, 1.0, 3), bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam_t", [
    1j,
    "0.5",  # a string is not parsed as a number
    np.array([0.0, 1.0 + 1j]),
    np.array([0.0, None], dtype=object),
    ["0.1", "0.2"],
])
def test_closed_forms_reject_a_time_that_is_not_real_numbers(lam_t):
    prep = AtomPrep(2.0, 0.7)
    with pytest.raises(InvalidParameter, match="lam_t = coupling \\* t must be real numbers, got dtype"):
        jc.closed_form_variance_at(prep, lam_t, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("amp_e", "amp_g", "message"), [
    (np.array(["1", "0"]), [0.0, 0.0], "amp_e must be numbers, got dtype <U1"),
    ([1.0, 0.0], np.array([0, 0], dtype=object), "amp_g must be numbers, got dtype object"),
    ([1.0, 0.0], [[0.0, 0.0], [0.0]], "amp_g must be a regular array of numbers"),
])
def test_joint_state_amplitudes_must_be_regular_arrays_of_numbers(amp_e, amp_g, message):
    with pytest.raises(InvalidState, match=f"^{message}$"):
        JointAtomFieldState(amp_e=amp_e, amp_g=amp_g)


def test_closed_forms_take_integer_and_bool_times():
    prep = AtomPrep(2.0, 0.7)
    assert jc.closed_form_variance_at(prep, 2, 0.3) == jc.closed_form_variance_at(prep, 2.0, 0.3)
    assert jc.closed_form_variance_at(prep, np.int64(2), 0.3) == jc.closed_form_variance_at(prep, 2.0, 0.3)
    grid = jc.closed_form_variance_at(prep, [[0, 1], [True, 3]], 0.3)
    assert np.array_equal(grid, jc.closed_form_variance_at(prep, np.array([[0.0, 1.0], [1.0, 3.0]]), 0.3))


def test_transient_sweep_matches_reduced_density_oracle():
    # the sweep runs on the closed forms; field_variances is the independent path
    for params in (ZERO_FREQ, RESONANT):
        for theta in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
            for phi in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
                prep = AtomPrep(float(theta), float(phi))
                for t, v1, v2, db1, db2 in jc.transient_sweep(prep, params, 7.0, 23):
                    o1, o2 = oracles.field_variances(prep, params, float(t))
                    assert abs(v1 - o1) < 1e-12
                    assert abs(v2 - o2) < 1e-12
                    assert abs(db1 - fock.variance_to_db(o1)) < 1e-12
                    assert abs(db2 - fock.variance_to_db(o2)) < 1e-12


def test_transient_sweep_builds_no_density_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("transient_sweep left the closed forms")

    monkeypatch.setattr(fock.FockDensity, "__post_init__", forbidden)
    monkeypatch.setattr(fock, "quadrature_stats", forbidden)
    rows = jc.transient_sweep(AtomPrep(2.0, 1.0), RESONANT, 5.0, 50)
    assert rows.shape == (50, 5)
    assert np.all(np.isfinite(rows))


# ------------------------------------------------- the numpy-free grid and rows

def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize(("a", "b", "n"), [
    (0.0, 1.0, 2), (0.5, 10.0, 2), (0.0, 6.2832, 100_000), (0.5, 10.0, 100_000),
    (0.0, 6.2832, 200), (0.5, 10.0, 20),  # the README jc-sweep and window-sweep grids
    (0.0, 5e-324, 7), (0.0, 5e-324, 100_000), (1e-310, 1e-310 + 5e-323, 50),  # steps that underflow to 0
])
def test_linspace_equals_numpy_bit_for_bit(a, b, n):
    assert np.array_equal(_bits(_linspace(a, b, n)), _bits(np.linspace(a, b, n)))


def test_linspace_takes_numpy_branch_for_a_zero_step():
    # the step 5e-324 / 6 is 0, so the points are (i / div) * delta + a, not i * 0 + a
    assert (5e-324 - 0.0) / 6 == 0.0
    assert _linspace(0.0, 5e-324, 7) == [0.0, 0.0, 0.0, 0.0, 5e-324, 5e-324, 5e-324]


def test_linspace_equals_numpy_on_random_positive_bounds():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b = sorted(10.0 ** rng.uniform(-300, 300, size=2))
        n = int(rng.integers(2, 3000))
        assert np.array_equal(_bits(_linspace(float(a), float(b), n)), _bits(np.linspace(a, b, n))), (a, b, n)


def _vectorised_transient(prep: AtomPrep, params: JCParams, t_max: float, n_steps: int) -> np.ndarray:
    """The sweep as numpy computed it before its rows came from the scalar core."""
    ts = np.linspace(0.0, t_max, n_steps)
    lam = params.coupling * ts
    c2 = math.cos(prep.theta / 2.0) ** 2
    s2 = math.sin(prep.theta / 2.0) ** 2
    v1, v2 = (
        fock.VACUUM_VARIANCE + c2 * np.sin(lam) ** 2 * (0.5 - s2 * math.sin(prep.phi + phi_lo) ** 2)
        for phi_lo in (0.0, math.pi / 2.0)
    )
    db1 = [fock.variance_to_db(v) for v in v1]
    db2 = [fock.variance_to_db(v) for v in v2]
    return np.column_stack((ts, v1, v2, db1, db2))


def test_transient_sweep_matches_the_vectorised_oracle():
    # within round-off, not bit for bit: np.sin follows numpy's SIMD dispatch,
    # while the CLI goldens pin this host's bytes
    rng = np.random.default_rng(2021)
    for _ in range(60):
        prep = AtomPrep(float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)))
        params = JCParams(omega0=0.0, omega=0.0, coupling=float(10.0 ** rng.uniform(-2, 2)))
        t_max, n_steps = float(10.0 ** rng.uniform(-3, 3)), int(rng.integers(2, 2000))
        rows = jc.transient_sweep(prep, params, t_max, n_steps)
        want = _vectorised_transient(prep, params, t_max, n_steps)
        assert rows.shape == want.shape
        assert np.allclose(rows, want, rtol=1e-15, atol=0.0)


def test_transient_core_returns_the_rows_of_transient_sweep():
    prep, args = AtomPrep(2.0944, 1.5708), (ZERO_FREQ, 6.2832, 200)
    rows = _transient_rows(prep, *args)
    assert all(type(x) is float for row in rows for x in row)
    assert np.array_equal(_bits(rows), _bits(jc.transient_sweep(prep, *args)))
