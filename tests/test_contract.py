"""The library's non-finite-input and integer contracts.

Every callable in `atomsqueeze.__all__`, every function of a library
module that is public by name (no leading underscore) though not exported,
and every test oracle in `oracles` is called once for each of its
`float`-annotated parameters set to NaN, +inf, -inf, 1e300 and -1e300,
each as a Python float and as np.float64, with every other parameter valid
and a numpy RuntimeWarning raised as an error.
Each call must raise an AtomSqueezeError subclass or return only finite
numbers, dataclass fields and public properties included.  Each
`int`-annotated parameter is set in turn to a non-integral float, -1 and
True, and each such call must raise an AtomSqueezeError.  The value sets
are fixed and exhaustive, so the cases are a plain parametrization rather
than sampled.

Every array parameter of the public API is listed in ARRAY_CALLABLES and
called with a str array, an object array and a ragged list in its place,
and a real one also with a complex array; each call must raise an
AtomSqueezeError.  A completeness test finds every public parameter that
is unannotated or annotated np.ndarray, so a new one cannot escape the
table.
"""

import dataclasses
import inspect
import math
import types
import typing

import numpy as np
import pytest

import atomsqueeze
from atomsqueeze import AtomSqueezeError, fock, homodyne, jaynes_cummings, modes, superposition, wigner
import oracles

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BAD_FLOATS = (math.nan, math.inf, -math.inf, 1e300, -1e300)
BAD_FLOATS += tuple(np.float64(v) for v in BAD_FLOATS)  # a numpy scalar must meet the same guards
BAD_INTS = (1000.5, -1, True)

_SPEC = superposition.SuperpositionSpec(beta_abs=0.5, rel_phase=0.3)
_STATE = fock.to_density(superposition.make_superposition(_SPEC))
_EMITTER = modes.EmitterParams.from_preset("yb2+_3p1")
_GRID = wigner.wigner_of_state(_STATE, resolution=41)

# One valid value per parameter name of the callables under test; a name missing
# here fails its cases with a KeyError.  Sizes stay small and are never varied.
VALID = {
    "beta_abs": 0.5,
    "claimed_hz": _EMITTER.linewidth_hz,
    "commutator_expectation": -0.5,
    "coupling": 1.0,
    "dt": 0.01,
    "emitted": modes.emitted_mode(_EMITTER.gamma_rate),
    "emitter": _EMITTER,
    "eta": 0.7,
    "eta_collection": 0.5,
    "eta_detector": 1.0,
    "eta_overlap": 0.8,
    "eta_total": 0.4,
    "gamma": 1.0,
    "grid": _GRID,
    "input_variance": 0.1875,
    "integral": _GRID.integral,
    "lam_t": 0.7,
    "lifetime_tau": _EMITTER.lifetime_tau,
    "lo": modes.lo_mode(_EMITTER.gamma_rate, 5.0 * _EMITTER.lifetime_tau),
    "mean": 0.1,
    "mean_hat": 0.1,
    "n": 100,
    "n_max": 4,
    "n_phases": 4,
    "n_samples": 100,
    "n_steps": 3,
    "normally_ordered_var_d1": -0.1,
    "omega": 1.0,
    "omega0": 1.0,
    "params": atomsqueeze.JCParams(omega0=1.0, omega=1.0, coupling=1.0),
    "phi": 0.4,
    "phi_lo": 0.3,
    "prep": atomsqueeze.AtomPrep(theta=2.0, phi=0.4),
    "preset": "custom",
    "quadrature_index": 1,
    "rate": 0.5,
    "ratio": 0.1,
    "rel_phase": 0.3,
    "rel_tol": 0.05,
    "resolution": 16,
    "seed": 1,
    "source": _SPEC,
    "spec": _SPEC,
    "state": _STATE,
    "std_error_of_var": 0.01,
    "t": 1.0,
    "t_max": 1.0,
    "theta": 2.0,
    "values": _GRID.values,
    "var_hat": 0.25,
    "variance": 0.25,
    "window": 2.0,
    "windows": np.array([1e-7, 2e-7]),
    "x": np.linspace(-1.0, 1.0, 5),
    "x1": _GRID.x1,
    "x1_range": (-4.0, 4.0),
    "x2": _GRID.x2,
    "x2_range": (-4.0, 4.0),
    "xi": 0.5,
}


# the exported names, then each public-by-name function left out of an __all__:
# the test oracles, which have none
CALLABLES = {name: getattr(atomsqueeze, name) for name in atomsqueeze.__all__}
for _module in (fock, homodyne, jaynes_cummings, modes, superposition, wigner, oracles):
    CALLABLES.update(
        (name, obj) for name, obj in vars(_module).items()
        if inspect.isfunction(obj) and obj.__module__ == _module.__name__
        and not name.startswith("_") and name not in getattr(_module, "__all__", ())
    )


def _is_float(annotation) -> bool:
    """float itself, or a union holding it such as float | None (not tuple[float, float])."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        return float in typing.get_args(annotation)
    return annotation is float


def _cases():
    for name, obj in CALLABLES.items():
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        for param in inspect.signature(obj).parameters.values():
            bads = BAD_FLOATS if _is_float(param.annotation) else BAD_INTS if param.annotation is int else ()
            for bad in bads:
                yield pytest.param(name, param.name, bad, id=f"{name}-{param.name}={bad!r}")


def _allowed(obj, name: str, value) -> bool:
    # the documented untruncated mode: an exponential TemporalMode has window = inf,
    # as TemporalMode, emitted_mode and lo_mode build it
    return isinstance(obj, modes.TemporalMode) and name == "window" and value == math.inf


def _attributes(record) -> list[str]:
    """A record's fields, then the public properties it derives from them."""
    derived = [n for n, v in vars(type(record)).items() if isinstance(v, property) and not n.startswith("_")]
    return [f.name for f in dataclasses.fields(record)] + derived


def _non_finite(value, path: str = "result"):
    """Paths of the non-finite numbers in a returned value."""
    if dataclasses.is_dataclass(value):
        for name in _attributes(value):
            v = getattr(value, name)
            if not _allowed(value, name, v):
                yield from _non_finite(v, f"{path}.{name}")
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{path}[{i}]")
    elif isinstance(value, (np.ndarray, np.number, np.bool_, int, float, complex)):
        if not np.all(np.isfinite(value)):
            yield path
    elif callable(value):  # marginal_density returns the density as a function of x
        yield from _non_finite(value(0.5), f"{path}(0.5)")
    elif not isinstance(value, str):
        raise TypeError(f"{path} has an unchecked type {type(value).__name__}")


@pytest.mark.parametrize(("name", "param", "bad"), list(_cases()))
def test_non_finite_input_raises_or_returns_finite(name, param, bad):
    func = CALLABLES[name]
    kwargs = {p: VALID[p] for p in inspect.signature(func).parameters}
    kwargs[param] = bad
    try:
        result = func(**kwargs)
    except AtomSqueezeError:
        return
    assert inspect.signature(func).parameters[param].annotation is not int, f"{param}={bad!r} was accepted"
    if name == "variance_to_db" and bad == math.inf:
        # an infinite variance is infinitely far above the vacuum floor: inf dB is the answer
        assert result == math.inf
        return
    assert list(_non_finite(result)) == []


_JOINT = jaynes_cummings.evolve_resonant(VALID["prep"], VALID["params"], 0.5)

# One valid array per array parameter name; each probe is built from it.
VALID_ARRAYS = {
    "amp_e": _JOINT.amp_e,
    "amp_g": _JOINT.amp_g,
    "amplitudes": superposition.make_superposition(_SPEC).amplitudes,
    "cdf": np.linspace(0.0, 1.0, 5),
    "lam_t": np.array([0.0, 0.7]),
    "matrix": _STATE.matrix,
    "samples": np.array([0.1, -0.2, 0.3, 0.05]),
    "t": np.array([0.0, 1e-7]),
    "values": _GRID.values,
    "windows": VALID["windows"],
    "x": VALID["x"],
    "x1": _GRID.x1,
    "x2": _GRID.x2,
    "xs": np.linspace(-1.0, 1.0, 5),
}
COMPLEX_ARRAYS = {"amp_e", "amp_g", "amplitudes", "matrix"}  # state amplitudes, which admit a complex dtype

# Every array parameter of the public API, as {label: (callable, its array parameters)}
ARRAY_CALLABLES = {
    "FockVector": (fock.FockVector, ("amplitudes",)),
    "FockDensity": (fock.FockDensity, ("matrix",)),
    "make_fock_vector": (fock.make_fock_vector, ("amplitudes",)),
    "JointAtomFieldState": (jaynes_cummings.JointAtomFieldState, ("amp_e", "amp_g")),
    "WignerGrid": (wigner.WignerGrid, ("x1", "x2", "values")),
    "TemporalMode.amplitude": (VALID["lo"].amplitude, ("t",)),
    "window_tradeoff": (modes.window_tradeoff, ("windows",)),
    "hermite_functions": (homodyne.hermite_functions, ("x",)),
    "marginal_density(state, phi_lo)": (homodyne.marginal_density(_STATE, VALID["phi_lo"]), ("x",)),
    "estimate_variance": (homodyne.estimate_variance, ("samples",)),
    "ks_statistic": (homodyne.ks_statistic, ("samples", "xs", "cdf")),
    "closed_form_variance_at": (jaynes_cummings.closed_form_variance_at, ("lam_t",)),
    "closed_form_variances": (jaynes_cummings.closed_form_variances, ("lam_t",)),
}

# each probe takes the place of a valid array; "complex" goes to real parameters only
ARRAY_PROBES = {
    "str": lambda a: a.astype(str),
    "object": lambda a: a.astype(object),
    "ragged": lambda a: [a.tolist(), a.tolist()[:1]],
    "complex": lambda a: a + 0j,
}


def _array_call(label: str, **overrides):
    """Call a table entry with its valid arrays, VALID for its other parameters, then overrides."""
    func, arrays = ARRAY_CALLABLES[label]
    kwargs = {p: VALID_ARRAYS[p] if p in arrays else VALID[p] for p in inspect.signature(func).parameters}
    return func(**{**kwargs, **overrides})


def _array_cases():
    for label, (_, arrays) in ARRAY_CALLABLES.items():
        for param in arrays:
            for probe in ARRAY_PROBES:
                if probe != "complex" or param not in COMPLEX_ARRAYS:
                    yield pytest.param(label, param, probe, id=f"{label}-{param}-{probe}")


@pytest.mark.parametrize("label", list(ARRAY_CALLABLES))
def test_array_table_calls_succeed_on_valid_arrays(label):
    # so that each probe below fails on its probed array alone
    assert list(_non_finite(_array_call(label))) == []


@pytest.mark.parametrize(("label", "param", "probe"), list(_array_cases()))
def test_array_probe_raises(label, param, probe):
    with pytest.raises(AtomSqueezeError):
        _array_call(label, **{param: ARRAY_PROBES[probe](VALID_ARRAYS[param])})


def _array_parameters():
    """(label, parameter) for each public parameter, class methods' included, unannotated or annotated np.ndarray."""
    for name, obj in CALLABLES.items():
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        funcs = {name: obj}
        if isinstance(obj, type):
            methods = {m: v for m, v in vars(obj).items() if inspect.isfunction(v) and not m.startswith("_")}
            funcs.update((f"{name}.{m}", v) for m, v in methods.items())
        for label, func in funcs.items():
            for param in inspect.signature(func).parameters.values():
                if param.name != "self" and param.annotation in (inspect.Parameter.empty, np.ndarray):
                    yield label, param.name


def test_every_array_parameter_is_probed():
    table = {(label, param) for label, (_, arrays) in ARRAY_CALLABLES.items() for param in arrays}
    # no signature walk reaches the density function that marginal_density returns
    assert set(_array_parameters()) == table - {("marginal_density(state, phi_lo)", "x")}
