"""The scalar guards of errors.py and the class policy they carry.

Each parameter guard raises InvalidParameter, and require_within raises
InvalidState against the TOLERANCES table.  Every guard fails on NaN and
shows the offending value as the Python number it equals, so numpy scalars
read like floats.
"""

import ast
import math
import pathlib
import re
from collections import Counter

import numpy as np
import pytest

from atomsqueeze import errors, fock, homodyne, jaynes_cummings as jc, superposition, wigner
from atomsqueeze.errors import (
    TOLERANCES,
    InvalidParameter,
    InvalidState,
    require_finite,
    require_in,
    require_int,
    require_within,
)
import oracles

NON_FINITE = (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf))


@pytest.mark.parametrize("value", [0.0, -1e308, 5, np.float64(2.5), np.int64(-3)])
def test_require_finite_passes_finite_numbers(value):
    require_finite("x", value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_require_finite_rejects_nan_and_inf(value):
    with pytest.raises(InvalidParameter, match=f"^x must be finite, got {float(value)!r}$"):
        require_finite("x", value)


@pytest.mark.parametrize(
    ("lo", "hi", "open_lo", "open_hi", "inside", "outside", "domain"),
    [
        (0, 1, False, False, [0, 1, 0.5, np.float64(1.0), True], [-1e-300, 1.0 + 1e-15, 2.0], "in [0, 1]"),
        (0, 1, True, True, [1e-300, 1.0 - 1e-16], [0.0, 1.0, np.float64(0.0)], "in (0, 1)"),
        (0, math.tau, False, True, [0.0, 6.28], [math.tau, -1e-300], f"in [0, {math.tau!r})"),
        (-5.0, 5.0, True, False, [5.0, -4.999], [-5.0, 5.000001], "in (-5.0, 5.0]"),
        (0, math.inf, True, False, [1e-300, 1e308, np.int64(1)], [0.0, -1.0, math.inf], "finite and > 0"),
        (0, math.inf, False, True, [0.0, 1e308], [-1e-300, math.inf, -math.inf], "finite and >= 0"),
    ],
)
def test_require_in_edges_and_messages(lo, hi, open_lo, open_hi, inside, outside, domain):
    for value in inside:
        require_in("v", value, lo, hi, open_lo=open_lo, open_hi=open_hi)
    for value in [*outside, math.nan, np.float64(math.nan)]:
        message = f"v must be {domain}, got {float(value)!r}"
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            require_in("v", value, lo, hi, open_lo=open_lo, open_hi=open_hi)


def test_require_in_shows_an_integer_as_an_integer():
    for value, shown in ((2, "2"), (np.int64(-3), "-3")):
        with pytest.raises(InvalidParameter, match=rf"^eta must be in \[0, 1\], got {shown}$"):
            require_in("eta", value, 0, 1)


def test_require_in_default_upper_end_demands_a_finite_value():
    require_in("t", 0.0, 0)
    for value in (math.inf, math.nan, -math.inf):
        with pytest.raises(InvalidParameter, match="^t must be finite and >= 0, got"):
            require_in("t", value, 0)


@pytest.mark.parametrize("value", [4, 10**30, np.int64(4), np.uint8(200), np.int32(7)])
def test_require_int_passes_integers_at_or_above_the_least(value):
    require_int("n", value, 4)


@pytest.mark.parametrize(
    ("value", "shown"),
    [
        (3, "3"),
        (np.int64(3), "3"),
        (-1, "-1"),
        (True, "True"),
        (np.True_, "True"),
        (6.0, "6.0"),
        (np.float64(6.0), "6.0"),
        (1000.5, "1000.5"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        ("6", "'6'"),
        (None, "None"),
    ],
)
def test_require_int_rejects_bools_floats_and_small_integers(value, shown):
    with pytest.raises(InvalidParameter, match=f"^n must be an integer >= 4, got {shown}$"):
        require_int("n", value, 4)


def test_require_int_rejects_bool_even_where_its_value_would_pass():
    require_int("seed", 0, 0)
    require_int("seed", 1, 0)
    for flag in (False, True, np.False_, np.True_):
        with pytest.raises(InvalidParameter, match="seed must be an integer >= 0"):
            require_int("seed", flag, 0)


_STATE = fock.to_density(fock.make_fock_vector([0.8, 0.6]))
_SPEC = superposition.SuperpositionSpec(beta_abs=0.5, rel_phase=0.3)
_PREP = jc.AtomPrep(theta=2.0, phi=0.4)

PHASE_TAKERS = {
    "rotate_phase": lambda phi: fock.rotate_phase(_STATE, phi),
    "quadrature_operator": lambda phi: oracles.quadrature_operator(3, phi),
    "quadrature_stats": lambda phi: fock.quadrature_stats(_STATE, phi),
    "marginal_density": lambda phi: homodyne.marginal_density(_STATE, phi),
    "HomodyneRun": lambda phi: homodyne.HomodyneRun(_STATE, phi, 1.0, 100, 1),
    "SuperpositionSpec": lambda phi: superposition.SuperpositionSpec(beta_abs=0.5, rel_phase=phi),
    "variance_at_lo_phase": lambda phi: superposition.variance_at_lo_phase(_SPEC, phi),
    "closed_form_variance_at": lambda phi: jc.closed_form_variance_at(_PREP, 1.0, phi),
    "wigner_marginal": lambda phi: wigner.wigner_marginal(wigner.wigner_of_state(_STATE, resolution=16), phi),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(PHASE_TAKERS))
def test_a_numpy_nan_phase_is_caller_input_and_reads_nan(name):
    with pytest.raises(InvalidParameter, match=r"must be finite, got nan$"):
        PHASE_TAKERS[name](np.float64(math.nan))


def _shown_values(invariant):
    """numpy scalars for each {} of the invariant's message, and the text each must read as."""
    values = [np.float64(1.25 + k) for k in range(TOLERANCES[invariant][1].count("{}"))]
    return values, TOLERANCES[invariant][1].format(*(repr(float(v)) for v in values))


@pytest.mark.parametrize("invariant", sorted(TOLERANCES))
def test_require_within_passes_an_error_equal_to_the_tolerance(invariant):
    tol, _ = TOLERANCES[invariant]
    values, _ = _shown_values(invariant)
    for error in (tol, np.float64(tol), 0.0):
        require_within(invariant, error, *values)


@pytest.mark.parametrize("invariant", sorted(TOLERANCES))
def test_require_within_raises_from_the_next_double_above_the_tolerance(invariant):
    tol, _ = TOLERANCES[invariant]
    values, message = _shown_values(invariant)
    above = math.nextafter(tol, math.inf)
    for error in (above, np.float64(above), math.inf, math.nan, np.float64(math.nan)):
        with pytest.raises(InvalidState, match=f"^{re.escape(message)}$") as exc:
            require_within(invariant, error, *values)
        assert "np.float64" not in str(exc.value)


def test_each_tolerance_is_checked_by_exactly_one_require_within_call():
    # the table is the one place: no entry is dead, no invariant is checked twice,
    # and each call shows as many values as its message has {}
    named = Counter()
    for path in sorted(pathlib.Path(errors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == "require_within":
                where = f"{path.name}:{node.lineno}"
                key = node.args[0]
                assert isinstance(key, ast.Constant) and key.value in TOLERANCES, where
                assert len(node.args) - 2 == TOLERANCES[key.value][1].count("{}"), where
                named[key.value] += 1
    assert named == Counter(dict.fromkeys(TOLERANCES, 1))
