"""Core layer: state constructors, quadrature statistics, loss channel."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomsqueeze import fock, superposition
from atomsqueeze.errors import InvalidParameter, InvalidState
import oracles
from helpers import braket_quadrature, ensemble_quadrature, random_fock_vector, random_mixture, traced_peak

SEED = 271828

ONE_THIRD_STATE = [math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)]
OPTIMAL_STATE = [math.sqrt(3.0) / 2.0, 0.5]


# ---------------------------------------------------------------- constructors

def test_make_fock_vector_normalizes():
    v = fock.make_fock_vector([2.0, 0.0, 0.0])
    assert v.amplitudes[0] == 1.0 + 0.0j
    assert np.all(v.amplitudes[1:] == 0.0)


def test_make_fock_vector_pads_bare_vacuum():
    v = fock.make_fock_vector([1.0])
    # one extra level so ladder operators act exactly on the stored state
    assert v.n_max >= 1
    assert v.amplitudes[0] == 1.0 + 0.0j


def test_make_fock_vector_keeps_relative_phase():
    v = fock.make_fock_vector([1.0, 1.0j])
    assert abs(v.amplitudes[1] / v.amplitudes[0] - 1.0j) < 1e-15


def test_make_fock_vector_rejects_zero_vector():
    with pytest.raises(InvalidState):
        fock.make_fock_vector([0.0, 0.0, 0.0])


def test_make_fock_vector_rejects_non_finite():
    with pytest.raises(InvalidState):
        fock.make_fock_vector([1.0, float("nan")])
    with pytest.raises(InvalidState):
        fock.make_fock_vector([1.0, float("inf")])


def test_make_fock_vector_rejects_empty_input():
    with pytest.raises(InvalidState, match="non-empty"):
        fock.make_fock_vector([])


def test_fock_vector_rejects_unnormalized_direct_construction():
    with pytest.raises(InvalidState):
        fock.FockVector(np.array([0.5, 0.5], dtype=complex))


def test_fock_vector_rejects_bad_shapes():
    with pytest.raises(InvalidState, match="1-D"):
        fock.FockVector(np.eye(2, dtype=complex))
    with pytest.raises(InvalidState, match="n_max >= 1"):
        fock.FockVector(np.array([1.0], dtype=complex))


def test_fock_density_rejects_non_square_matrix():
    with pytest.raises(InvalidState, match="square"):
        fock.FockDensity(np.full((2, 3), 1.0 / 3.0, dtype=complex))


def test_validation_messages_print_plain_floats():
    with pytest.raises(InvalidState, match=r"norm 1\.1 is not 1") as exc:
        fock.FockVector(np.array([1.1, 0.0], dtype=complex))
    assert "np.float64" not in str(exc.value)
    with pytest.raises(InvalidState, match=r"trace 1\.2 is not 1") as exc:
        fock.FockDensity(np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex))
    assert "np.float64" not in str(exc.value)


def test_fock_density_validation():
    with pytest.raises(InvalidState):  # not Hermitian
        fock.FockDensity(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
    with pytest.raises(InvalidState):  # trace != 1
        fock.FockDensity(np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex))
    with pytest.raises(InvalidState):  # negative eigenvalue
        fock.FockDensity(np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))


def test_fock_density_rejects_nan():
    with pytest.raises(InvalidState):
        fock.FockDensity(np.full((2, 2), np.nan))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("build", "message"), [
    (lambda: fock.FockDensity(np.array([["1", "0"], ["0", "0"]])), "matrix must be numbers, got dtype <U1"),
    (lambda: fock.FockDensity(np.array([["a", "0"], ["0", "0"]])), "matrix must be numbers, got dtype <U1"),
    (lambda: fock.FockDensity(np.eye(2, dtype=object) / 2), "matrix must be numbers, got dtype object"),
    (lambda: fock.FockDensity([[1.0, 0.0], [0.0]]), "matrix must be a regular array of numbers"),
    (lambda: fock.FockVector(np.array(["1", "0"])), "amplitudes must be numbers, got dtype <U1"),
    (lambda: fock.make_fock_vector(["1", "0"]), "amplitudes must be numbers, got dtype <U1"),
    (lambda: fock.make_fock_vector([[1.0, 0.0], [1.0]]), "amplitudes must be a regular array of numbers"),
])
def test_state_arrays_must_be_regular_arrays_of_numbers(build, message):
    # a string is not parsed as a number, and a ragged nesting raises no bare numpy error
    with pytest.raises(InvalidState, match=f"^{message}$"):
        build()


def test_a_state_stores_the_callers_complex_array_and_freezes_it_once_every_check_passes():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert fock.FockDensity(rho).matrix is rho and not rho.flags.writeable
    amps = np.array([0.6, 0.8j])
    assert fock.FockVector(amps).amplitudes is amps and not amps.flags.writeable
    # not Hermitian (the first check), and Hermitian of unit trace but not PSD (the last)
    for bad in (np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex), np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)):
        with pytest.raises(InvalidState):
            fock.FockDensity(bad)
        assert bad.flags.writeable


def test_rotate_phase_rejects_nan_phase():
    rho = fock.to_density(fock.make_fock_vector(ONE_THIRD_STATE))
    with pytest.raises(InvalidParameter):
        fock.rotate_phase(rho, math.nan)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_rotate_phase_names_a_non_finite_phase(phi):
    rho = fock.to_density(fock.make_fock_vector(ONE_THIRD_STATE))
    with pytest.raises(InvalidParameter, match=f"rotation phase must be finite, got {float(phi)!r}$"):
        fock.rotate_phase(rho, phi)


def test_to_density_is_projector():
    v = fock.make_fock_vector(ONE_THIRD_STATE)
    rho = fock.to_density(v).matrix
    assert np.max(np.abs(rho @ rho - rho)) < 1e-14
    assert abs(np.trace(rho).real - 1.0) < 1e-14


def test_quadrature_stats_rejects_nonpositive_variance_report():
    with pytest.raises(InvalidState):
        fock.QuadratureStats(phi_lo=0.0, mean=0.0, variance=0.0)


@pytest.mark.parametrize(
    "phi_lo, mean, variance",
    [
        (math.nan, math.inf, 0.3),
        (math.nan, 0.0, 0.3),
        (math.inf, 0.0, 0.3),
        (0.0, math.nan, 0.3),
        (0.0, -math.inf, 0.3),
        (0.0, 0.0, math.inf),
        (0.0, 0.0, math.nan),
    ],
)
def test_quadrature_stats_rejects_non_finite_fields(phi_lo, mean, variance):
    with pytest.raises(InvalidState, match="must be finite"):
        fock.QuadratureStats(phi_lo=phi_lo, mean=mean, variance=variance)


# ------------------------------------------------------------------ operators

def test_annihilation_matrix_values():
    a = oracles.annihilation_matrix(3)
    expected = np.zeros((4, 4))
    for n in range(3):
        expected[n, n + 1] = math.sqrt(n + 1.0)
    assert np.array_equal(a, expected)


def test_annihilation_matrix_rejects_small_cutoff():
    with pytest.raises(InvalidParameter):
        oracles.annihilation_matrix(0)


def test_number_operator_from_ladder_product():
    a = oracles.annihilation_matrix(6)
    n_op = a.conj().T @ a
    assert np.allclose(n_op, np.diag(np.arange(7.0)), atol=1e-13)


def test_quadrature_operator_phases():
    n_max = 5
    a = oracles.annihilation_matrix(n_max)
    x1 = oracles.quadrature_operator(n_max, 0.0)
    x2 = oracles.quadrature_operator(n_max, math.pi / 2.0)
    assert np.allclose(x1, (a + a.conj().T) / 2.0, atol=1e-15)
    assert np.allclose(x2, 1j * (a.conj().T - a) / 2.0, atol=1e-15)
    # Hermitian at arbitrary phase
    x = oracles.quadrature_operator(n_max, 0.7)
    assert np.max(np.abs(x - x.conj().T)) < 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi_lo", [math.nan, math.inf, -math.inf])
def test_quadrature_operator_rejects_a_non_finite_phase_as_quadrature_stats_does(phi_lo):
    rho = fock.to_density(fock.make_fock_vector([1.0, 1.0]))
    for oracle in (lambda: oracles.quadrature_operator(3, phi_lo), lambda: fock.quadrature_stats(rho, phi_lo)):
        with pytest.raises(InvalidParameter, match="LO phase must be finite"):
            oracle()


# ----------------------------------------------------------------- statistics

def test_vacuum_quadrature_stats():
    rho = fock.to_density(fock.make_fock_vector([1.0]))
    for phi in (0.0, 0.4, math.pi / 2.0, 3.0):
        st = fock.quadrature_stats(rho, phi)
        assert abs(st.mean) < 1e-15
        assert abs(st.variance - 0.25) < 1e-15


def test_single_photon_quadrature_stats():
    rho = fock.to_density(fock.make_fock_vector([0.0, 1.0]))
    st = fock.quadrature_stats(rho, 0.0)
    assert abs(st.mean) < 1e-15
    assert abs(st.variance - 0.75) < 1e-15


def test_two_level_superposition_variance_value():
    rho = fock.to_density(fock.make_fock_vector(ONE_THIRD_STATE))
    st = fock.quadrature_stats(rho, 0.0)
    assert abs(st.variance - 7.0 / 36.0) < 1e-15


def test_stats_match_braket_oracle_on_random_pure_states():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        vec = random_fock_vector(rng, int(rng.integers(1, 9)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        mean, var = braket_quadrature(vec.amplitudes, phi)
        got = fock.quadrature_stats(fock.to_density(vec), phi)
        assert abs(got.mean - mean) < 1e-12
        assert abs(got.variance - var) < 1e-12


def test_stats_match_ensemble_oracle_on_random_mixtures():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        rho, weights, vecs = random_mixture(rng, int(rng.integers(1, 7)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        mean, var = ensemble_quadrature(weights, vecs, phi)
        got = fock.quadrature_stats(rho, phi)
        assert abs(got.mean - mean) < 1e-12
        assert abs(got.variance - var) < 1e-12


def test_uncertainty_product_on_random_mixtures():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(200):
        rho, _, _ = random_mixture(rng, int(rng.integers(1, 9)))
        phi = float(rng.uniform(0.0, math.pi))
        v1 = fock.quadrature_stats(rho, phi).variance
        v2 = fock.quadrature_stats(rho, phi + math.pi / 2.0).variance
        assert v1 * v2 >= 1.0 / 16.0 - 1e-10


def test_rotated_state_measures_like_phased_lo():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(25):
        rho, _, _ = random_mixture(rng, 5)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        direct = fock.quadrature_stats(rho, phi)
        rotated = fock.quadrature_stats(fock.rotate_phase(rho, phi), 0.0)
        assert abs(direct.mean - rotated.mean) < 1e-12
        assert abs(direct.variance - rotated.variance) < 1e-12


def test_rotate_phase_preserves_populations():
    rng = np.random.default_rng(SEED + 4)
    rho, _, _ = random_mixture(rng, 6)
    out = fock.rotate_phase(rho, 1.3)
    assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-14)


@pytest.mark.parametrize("n_max", [1, 20, 52, 100])
def test_rotated_matrix_passes_every_density_check(n_max):
    # the homodyne kernels read _rotated without building a state; the rotation
    # is unitary, so the matrix it returns must pass every FockDensity check
    rng = np.random.default_rng(SEED + 5)
    for _ in range(3):
        rho, _, _ = random_mixture(rng, n_max)
        for phi in (0.0, math.pi / 2.0, -2.7, 2.0 * math.pi - 1e-9):
            fock.FockDensity(fock._rotated(rho.matrix, phi))


def _dense_trace_stats(rho: np.ndarray, phi: float) -> tuple[float, float]:
    """(mean, variance) as Tr(rho X) and Tr(rho X^2) - mean^2, rho padded by one level."""
    dim = rho.shape[0]
    padded = np.zeros((dim + 1, dim + 1), dtype=complex)
    padded[:dim, :dim] = rho
    x = oracles.quadrature_operator(dim, phi)
    mean = np.trace(padded @ x).real
    return mean, np.trace(padded @ x @ x).real - mean * mean


def test_stats_match_padded_dense_trace_oracle():
    rng = np.random.default_rng(SEED + 5)
    for n_max in (1, 2, 20, 52, 100):
        rho, _, _ = random_mixture(rng, n_max)
        for phi in rng.uniform(0.0, 2.0 * math.pi, 8):
            mean, var = _dense_trace_stats(rho.matrix, float(phi))
            got = fock.quadrature_stats(rho, float(phi))
            assert abs(got.mean - mean) <= 1e-13 * max(1.0, abs(mean)), (n_max, phi)
            assert abs(got.variance - var) <= 1e-13 * max(1.0, var), (n_max, phi)


def test_stats_build_no_dense_operator():
    rho, _, _ = random_mixture(np.random.default_rng(SEED + 6), 52)
    mean, var = _dense_trace_stats(rho.matrix, 0.9)
    got = fock.quadrature_stats(rho, 0.9)
    assert abs(got.mean - mean) <= 1e-13 * max(1.0, abs(mean))
    assert abs(got.variance - var) <= 1e-13 * max(1.0, var)
    # at n_max = 500 one dense complex 501 x 501 operator would take 3.8 MiB;
    # the band sums read three diagonals and build arrays of n_max doubles
    big, _, _ = random_mixture(np.random.default_rng(SEED + 6), 500)
    assert traced_peak(lambda: fock.quadrature_stats(big, 0.9)) < 32 * 2**10


def test_stats_fields_are_python_floats():
    # CSV cells use repr, and an np.float64 reprs differently under numpy 2
    rho, _, _ = random_mixture(np.random.default_rng(SEED + 7), 4)
    st = fock.quadrature_stats(rho, 0.4)
    assert type(st.mean) is float
    assert type(st.variance) is float


def test_stats_reject_non_finite_phase():
    rho = fock.to_density(fock.make_fock_vector(ONE_THIRD_STATE))
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            fock.quadrature_stats(rho, phi)


# ------------------------------------------------------------------- decibels

def test_variance_to_db_reference_points():
    assert abs(fock.variance_to_db(0.25)) < 1e-12
    assert abs(fock.variance_to_db(0.5) - 10.0 * math.log10(2.0)) < 1e-12
    assert round(fock.variance_to_db(0.5), 4) == 3.0103
    assert abs(fock.variance_to_db(0.125) + 10.0 * math.log10(2.0)) < 1e-12
    db = fock.variance_to_db(3.0 / 16.0)
    assert round(db, 4) == -1.2494


def test_variance_to_db_rejects_nonpositive():
    with pytest.raises(InvalidState):
        fock.variance_to_db(0.0)
    with pytest.raises(InvalidState):
        fock.variance_to_db(-0.1)


# --------------------------------------------------------------- loss channel

def test_loss_kraus_operators_complete():
    for n_max in (1, 3, 6):
        for eta in (0.0, 0.3, 0.94, 1.0):
            ops = oracles.loss_kraus_operators(n_max, eta)
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(n_max + 1))) < 1e-12


def _kraus_sum(rho, eta):
    """The Kraus form of the loss channel, with apply_loss's Hermitian scrub."""
    out = np.zeros_like(rho)
    for k in oracles.loss_kraus_operators(rho.shape[0] - 1, eta):
        out = out + k @ rho @ k.conj().T
    return (out + out.conj().T) / 2.0


@pytest.mark.parametrize("n_max", [1, 2, 20, 52, 100])
def test_apply_loss_equals_kraus_sum_bit_for_bit(n_max):
    rng = np.random.default_rng(SEED + 30 + n_max)
    for eta in (0.0, 1e-300, 0.3, 0.7, 1.0):
        rho, _, _ = random_mixture(rng, n_max)
        out = fock.apply_loss(rho, eta).matrix
        ref = _kraus_sum(rho.matrix, eta)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64)), eta


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    n_max=st.integers(1, 12),
    n_pure=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(0.0, 1.0),
)
def test_apply_loss_equals_kraus_sum_bit_for_bit_on_any_mixed_state(n_max, n_pure, seed, eta):
    # the band sum against the Kraus oracle, as the grid test above, on random mixtures up to n_max = 12
    rho, _, _ = random_mixture(np.random.default_rng(seed), n_max, n_pure)
    out = fock.apply_loss(rho, eta).matrix
    ref = _kraus_sum(rho.matrix, eta)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def _real_states():
    """(name, density) pairs with an all-zero imaginary part: squeezed vacua
    from to_density (signed zeros there), with and without loss, and a real
    mixture."""
    for n_max in (20, 52, 100):
        pure = fock.to_density(superposition.squeezed_vacuum(0.75, n_max)[0])
        yield f"sq-n{n_max}", pure
        yield f"sq-n{n_max}-lossy", fock.apply_loss(pure, 0.7)
    rng = np.random.default_rng(SEED + 50)
    vecs = rng.standard_normal((3, 9))
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * np.outer(v, v) / (v @ v) for w, v in zip(weights, vecs))
    yield "real-mixture-n8", fock.FockDensity((rho + rho.T) / 2.0 + 0j)


@pytest.mark.parametrize("rho", [pytest.param(rho, id=name) for name, rho in _real_states()])
def test_apply_loss_on_a_real_state_equals_kraus_sum_bit_for_bit(rho):
    assert not rho.matrix.imag.any()
    for eta in (0.0, 1e-300, 0.3, 0.75, 0.999999, 1.0):
        out = fock.apply_loss(rho, eta).matrix
        ref = _kraus_sum(rho.matrix, eta)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64)), eta


@pytest.mark.parametrize("n_max", [1, 20, 100])
def test_loss_weights_equal_the_per_element_expression_bit_for_bit(n_max):
    for eta in (0.0, 1e-300, 0.3, 0.75, 0.999999, 1.0):
        weights = fock._loss_weights(n_max, eta)
        assert len(weights) == n_max + 1
        for k, s in enumerate(weights):
            ref = np.sqrt([math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k for n in range(k, n_max + 1)])
            assert np.array_equal(s.view(np.int64), ref.view(np.int64)), (eta, k)


def test_apply_loss_builds_no_kraus_operators():
    rho, _, _ = random_mixture(np.random.default_rng(SEED + 40), 100)
    tracemalloc.start()
    try:
        out = fock.apply_loss(rho, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 101 dense complex Kraus operators alone would take ~16 MiB
    assert peak < 4 * 2**20
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


def test_apply_loss_eta_one_is_identity():
    rng = np.random.default_rng(SEED + 5)
    rho, _, _ = random_mixture(rng, 5)
    out = fock.apply_loss(rho, 1.0)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-14


def test_apply_loss_eta_zero_gives_vacuum():
    rng = np.random.default_rng(SEED + 6)
    rho, _, _ = random_mixture(rng, 5)
    out = fock.apply_loss(rho, 0.0)
    vac = np.zeros_like(out.matrix)
    vac[0, 0] = 1.0
    assert np.max(np.abs(out.matrix - vac)) < 1e-14
    assert abs(fock.quadrature_stats(out, 0.3).variance - 0.25) < 1e-14


def test_apply_loss_rejects_bad_efficiency():
    rho = fock.to_density(fock.make_fock_vector([1.0]))
    with pytest.raises(InvalidParameter):
        fock.apply_loss(rho, -0.1)
    with pytest.raises(InvalidParameter):
        fock.apply_loss(rho, 1.1)
    with pytest.raises(InvalidParameter):
        fock.apply_loss(rho, math.nan)


def test_loss_two_level_closed_form():
    rho = fock.to_density(fock.make_fock_vector([math.sqrt(3.0) / 2.0, 0.5j]))
    eta = 0.37
    out = fock.apply_loss(rho, eta).matrix
    r = rho.matrix
    assert abs(out[1, 1] - eta * r[1, 1]) < 1e-15
    assert abs(out[0, 1] - math.sqrt(eta) * r[0, 1]) < 1e-15
    assert abs(out[0, 0] - (1.0 - eta * r[1, 1])) < 1e-15


def test_loss_variance_identity_on_random_states():
    # V_out = eta * V_in + (1 - eta)/4 at every LO phase
    rng = np.random.default_rng(SEED + 7)
    for _ in range(50):
        rho, _, _ = random_mixture(rng, int(rng.integers(1, 7)))
        eta = float(rng.uniform())
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        v_in = fock.quadrature_stats(rho, phi).variance
        v_out = fock.quadrature_stats(fock.apply_loss(rho, eta), phi).variance
        assert abs(v_out - (eta * v_in + (1.0 - eta) / 4.0)) < 1e-12


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    n_max=st.integers(1, 12),
    n_pure=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(0.0, 1.0),
    phi=st.floats(-10.0, 10.0),
)
def test_lossy_variance_law_holds_on_any_mixed_state(n_max, n_pure, seed, eta, phi):
    # V_out = eta * V_in + (1 - eta)/4, on random mixtures up to n_max = 12
    rho, _, _ = random_mixture(np.random.default_rng(seed), n_max, n_pure)
    v_in = fock.quadrature_stats(rho, phi).variance
    v_out = fock.quadrature_stats(fock.apply_loss(rho, eta), phi).variance
    assert abs(v_out - (eta * v_in + (1.0 - eta) / 4.0)) <= 1e-12


def test_loss_composes_multiplicatively():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(25):
        rho, _, _ = random_mixture(rng, 4)
        e1, e2 = (float(x) for x in rng.uniform(size=2))
        twice = fock.apply_loss(fock.apply_loss(rho, e1), e2)
        once = fock.apply_loss(rho, e1 * e2)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12


def test_loss_on_optimal_state_detection_value():
    rho = fock.to_density(fock.make_fock_vector(OPTIMAL_STATE))
    out = fock.apply_loss(rho, 0.94)
    v = fock.quadrature_stats(out, 0.0).variance
    assert abs(v - 0.19125) < 1e-12
    assert round(fock.variance_to_db(v), 3) == -1.163
