"""Resonant atom-field dynamics, closed forms, and the dipole criterion."""

import math

import numpy as np
import pytest

from atomsqueeze import fock, jaynes_cummings as jc, superposition
from atomsqueeze.errors import InvalidParameter, InvalidState, NotSupported
from atomsqueeze.jaynes_cummings import AtomPrep, JCParams, JointAtomFieldState

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
            jc.numeric_evolve(prep, RESONANT, t, 0.005)
        with pytest.raises(InvalidParameter, match="time must be finite"):
            jc.field_variances(prep, RESONANT, t)


def test_off_resonance_not_supported():
    detuned = JCParams(omega0=1.0, omega=1.2, coupling=0.5)
    prep = AtomPrep(theta=1.0, phi=0.0)
    with pytest.raises(NotSupported):
        jc.evolve_resonant(prep, detuned, 1.0)
    with pytest.raises(NotSupported):
        jc.numeric_evolve(prep, detuned, 1.0, 0.01)
    with pytest.raises(NotSupported):
        jc.field_variances(prep, detuned, 1.0)


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
    h = jc.jc_hamiltonian(RESONANT, 1)
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
        jc.jc_hamiltonian(RESONANT, 0)


def test_numeric_matches_closed_form():
    prep = AtomPrep(theta=2.0 * math.pi / 3.0, phi=0.4)
    t = 7.0
    numeric = jc.numeric_evolve(prep, RESONANT, t, dt=0.005)
    exact = jc.evolve_resonant(prep, RESONANT, t)
    assert np.max(np.abs(numeric.amp_e[:2] - exact.amp_e)) < 1e-8
    assert np.max(np.abs(numeric.amp_g[:2] - exact.amp_g)) < 1e-8
    # population never climbs the truncation ladder
    assert np.max(np.abs(numeric.amp_e[2:])) < 1e-10
    assert np.max(np.abs(numeric.amp_g[2:])) < 1e-10


def test_numeric_norm_drift_stays_tiny():
    prep = AtomPrep(theta=1.9, phi=5.1)
    state = jc.numeric_evolve(prep, ZERO_FREQ, 10.0, dt=0.01)
    norm = math.sqrt(float(np.sum(np.abs(state.amp_e) ** 2) + np.sum(np.abs(state.amp_g) ** 2)))
    assert abs(norm - 1.0) < 1e-9


def test_numeric_step_validation():
    prep = AtomPrep(theta=1.0, phi=0.0)
    with pytest.raises(InvalidParameter):
        jc.numeric_evolve(prep, RESONANT, 1.0, dt=0.0)
    with pytest.raises(InvalidParameter):
        jc.numeric_evolve(prep, RESONANT, 1.0, dt=0.02 / RESONANT.coupling)


def test_reduced_field_density_values():
    theta, phi = 1.2, 0.7
    prep = AtomPrep(theta=theta, phi=phi)
    state = jc.evolve_resonant(prep, ZERO_FREQ, 0.9)
    rho = jc.reduced_field_density(state).matrix
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
                v1, v2 = jc.field_variances(prep, ZERO_FREQ, float(lt))
                c1, c2 = jc.closed_form_variances(prep, float(lt))
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


def test_transient_sweep_matches_reduced_density_oracle():
    # the sweep runs on the closed forms; field_variances is the independent path
    for params in (ZERO_FREQ, RESONANT):
        for theta in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
            for phi in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False):
                prep = AtomPrep(float(theta), float(phi))
                for t, v1, v2, db1, db2 in jc.transient_sweep(prep, params, 7.0, 23):
                    o1, o2 = jc.field_variances(prep, params, float(t))
                    assert abs(v1 - o1) < 1e-12
                    assert abs(v2 - o2) < 1e-12
                    assert abs(db1 - fock.variance_to_db(o1)) < 1e-12
                    assert abs(db2 - fock.variance_to_db(o2)) < 1e-12


def test_transient_sweep_builds_no_density_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("transient_sweep left the closed forms")

    monkeypatch.setattr(fock.FockDensity, "__post_init__", forbidden)
    monkeypatch.setattr(fock, "quadrature_stats", forbidden)
    monkeypatch.setattr(jc, "field_variances", forbidden)
    monkeypatch.setattr(jc, "reduced_field_density", forbidden)
    rows = jc.transient_sweep(AtomPrep(2.0, 1.0), RESONANT, 5.0, 50)
    assert rows.shape == (50, 5)
    assert np.all(np.isfinite(rows))
