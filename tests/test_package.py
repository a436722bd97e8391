"""The package namespace: what `atomsqueeze` re-exports, in order."""

import dataclasses
import math
import pathlib
import types
import warnings

import numpy as np
import pytest

import atomsqueeze
from atomsqueeze import errors, fock, homodyne, jaynes_cummings, modes, superposition, wigner

MODULES = (errors, fock, homodyne, jaynes_cummings, modes, superposition, wigner)

PUBLIC_NAMES = [
    "AtomSqueezeError",
    "DegenerateData",
    "InvalidParameter",
    "InvalidState",
    "NotSupported",
    "FockDensity",
    "FockVector",
    "QuadratureStats",
    "annihilation_matrix",
    "apply_loss",
    "make_fock_vector",
    "quadrature_operator",
    "quadrature_stats",
    "rotate_phase",
    "to_density",
    "variance_to_db",
    "GENERATOR_ID",
    "HomodyneRun",
    "VarianceEstimate",
    "estimate_variance",
    "marginal_density",
    "phase_scan",
    "sample_quadratures",
    "AtomPrep",
    "DipoleCheck",
    "JCParams",
    "JointAtomFieldState",
    "closed_form_variances",
    "dipole_squeezing_check",
    "evolve_resonant",
    "field_variances",
    "min_field_variance",
    "numeric_evolve",
    "reduced_field_density",
    "transient_sweep",
    "EMITTER_PRESETS",
    "EfficiencyBudget",
    "EmitterParams",
    "TemporalMode",
    "detected_squeezing",
    "emitted_mode",
    "linewidth_check",
    "lo_linewidth_requirement",
    "lo_mode",
    "matched_overlap",
    "mode_overlap",
    "window_tradeoff",
    "SuperpositionSpec",
    "make_superposition",
    "min_variance",
    "optimal_beta",
    "quadrature_variances",
    "superposition_variance",
    "squeezed_vacuum",
    "squeezing_region",
    "variance_at_lo_phase",
    "WignerGrid",
    "wigner_marginal",
    "wigner_of_state",
    "__version__",
]


def test_package_all_is_pinned():
    assert atomsqueeze.__all__ == PUBLIC_NAMES


def test_each_module_declares_what_the_package_re_exports():
    declared = [name for module in MODULES for name in module.__all__]
    assert declared + ["__version__"] == PUBLIC_NAMES
    for module in MODULES:
        for name in module.__all__:
            assert getattr(atomsqueeze, name) is getattr(module, name)


def test_namespace_holds_the_public_names_and_submodules_only():
    # submodules appear as they are imported (cli only once something loads it)
    public = {
        name
        for name in dir(atomsqueeze)
        if not name.startswith("__") and not isinstance(getattr(atomsqueeze, name), types.ModuleType)
    }
    assert public == set(PUBLIC_NAMES) - {"__version__"}


def test_pyproject_reads_the_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls its [tool.setuptools] table beta
        config = pyprojecttoml.read_configuration(pathlib.Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["version"] == atomsqueeze.__version__


# each record stores only its inputs; every other figure is a property derived from them
RECORD_INPUTS = {
    modes.EmitterParams: ["lifetime_tau"],
    modes.TemporalMode: ["rate", "window"],
    modes.EfficiencyBudget: ["preset", "eta_collection", "eta_overlap", "eta_detector", "input_variance"],
    homodyne.VarianceEstimate: ["n", "mean_hat", "var_hat", "std_error_of_var"],
    jaynes_cummings.DipoleCheck: ["commutator_expectation", "normally_ordered_var_d1"],
}


@pytest.mark.parametrize("record", list(RECORD_INPUTS), ids=lambda r: r.__name__)
def test_records_store_only_their_inputs(record):
    assert [f.name for f in dataclasses.fields(record)] == RECORD_INPUTS[record]


_TAU = modes.EMITTER_PRESETS["yb2+_3p1"]


def _budget(beta_abs, collection, window_lifetimes, detector):
    spec = superposition.SuperpositionSpec(beta_abs=beta_abs, rel_phase=0.0)
    lo = modes.lo_mode(1.0 / _TAU, window_lifetimes * _TAU)
    return modes.detected_squeezing(spec, collection, modes.emitted_mode(1.0 / _TAU), lo, detector)


def _estimate(seed, n):
    return homodyne.estimate_variance(np.random.default_rng(seed).normal(size=n))


def _dipole(theta, phi):
    return jaynes_cummings.dipole_squeezing_check(jaynes_cummings.AtomPrep(theta=theta, phi=phi))


# (builder, its arguments, a derived attribute, the value the record held when that
# attribute was a stored field); each value is its exact repr, so a float that moves
# by one ulp, or turns into a numpy scalar, fails
DERIVED_VALUES = [
    (modes.EmitterParams.from_lifetime, (2.3e-07,), 'gamma_rate', 4347826.0869565215),
    (modes.EmitterParams.from_lifetime, (2.3e-07,), 'linewidth_hz', 691978.0134430233),
    (modes.EmitterParams.from_lifetime, (2.62e-08,), 'gamma_rate', 38167938.93129771),
    (modes.EmitterParams.from_lifetime, (2.62e-08,), 'linewidth_hz', 6074616.148545624),
    (modes.EmitterParams.from_lifetime, (0.001,), 'gamma_rate', 1000.0),
    (modes.EmitterParams.from_lifetime, (0.001,), 'linewidth_hz', 159.15494309189532),
    (modes.EmitterParams.from_lifetime, (1e-300,), 'gamma_rate', 9.999999999999999e+299),
    (modes.EmitterParams.from_lifetime, (1e-300,), 'linewidth_hz', 1.5915494309189535e+299),
    (modes.EmitterParams.from_lifetime, (1e+300,), 'gamma_rate', 1e-300),
    (modes.EmitterParams.from_lifetime, (1e+300,), 'linewidth_hz', 1.5915494309189534e-301),
    (modes.emitted_mode, (1.0 / _TAU,), 'shape', 'exponential'),
    (modes.lo_mode, (1.0 / _TAU, 5.0 * _TAU), 'shape', 'truncated-exponential'),
    (modes.exponential_mode, (0.5,), 'shape', 'exponential'),
    (modes.exponential_mode, (0.5, 1e-300), 'shape', 'truncated-exponential'),
    (_budget, (0.5, 0.5, 5.0, 1.0), 'eta_total', 0.4966310265004573),
    (_budget, (0.5, 0.5, 5.0, 1.0), 'detected_variance', 0.21896056084372142),
    (_budget, (0.5, 0.5, 5.0, 1.0), 'detected_db', -0.5757411187034724),
    (_budget, (0.5, 1.0, math.inf, 1.0), 'eta_total', 1.0),
    (_budget, (0.5, 1.0, math.inf, 1.0), 'detected_variance', 0.1875),
    (_budget, (0.5, 1.0, math.inf, 1.0), 'detected_db', -1.2493873660829993),
    (_budget, (0.4, 0.05, 2.0, 0.9), 'eta_total', 0.03890991225435245),
    (_budget, (0.4, 0.05, 2.0, 0.9), 'detected_variance', 0.2478833007733632),
    (_budget, (0.4, 0.05, 2.0, 0.9), 'detected_db', -0.03692738161826471),
    (_budget, (0.3, 0.8, 1.0, 0.95), 'eta_total', 0.480411624709704),
    (_budget, (0.3, 0.8, 1.0, 0.95), 'detected_variance', 0.23227281104821193),
    (_budget, (0.3, 0.8, 1.0, 0.95), 'detected_db', -0.3194163271942717),
    (_budget, (0.9, 0.25, 10.0, 0.6), 'eta_total', 0.14999319001053568),
    (_budget, (0.9, 0.25, 10.0, 0.6), 'detected_variance', 0.28766329001164553),
    (_budget, (0.9, 0.25, 10.0, 0.6), 'detected_db', 0.6094443450919982),
    (_budget, (0.5, 0.0, 5.0, 1.0), 'eta_total', 0.0),
    (_budget, (0.5, 0.0, 5.0, 1.0), 'detected_variance', 0.25),
    (_budget, (0.5, 0.0, 5.0, 1.0), 'detected_db', 0.0),
    (_budget, (0.5, 1.0, 0.5, 1.0), 'eta_total', 0.3934693402873667),
    (_budget, (0.5, 1.0, 0.5, 1.0), 'detected_variance', 0.22540816623203958),
    (_budget, (0.5, 1.0, 0.5, 1.0), 'detected_db', -0.4497036277708467),
    (_estimate, (0, 8), 'std_error_normal_theory', 0.17701970916991455),
    (_estimate, (1, 100), 'std_error_normal_theory', 0.10358741079069418),
    (_estimate, (2, 1000), 'std_error_normal_theory', 0.04592196528640688),
    (_estimate, (3, 10000), 'std_error_normal_theory', 0.014240526989692344),
    (_estimate, (4, 3), 'std_error_normal_theory', 1.2205366757675296),
    (_dipole, (0.0, 0.0), 'field_squeezing_predicted', False),
    (_dipole, (1.5, 0.0), 'field_squeezing_predicted', False),
    (_dipole, (2.0, 0.4), 'field_squeezing_predicted', True),
    (_dipole, (2.0, 1.5), 'field_squeezing_predicted', False),
    (_dipole, (2.5, 0.0), 'field_squeezing_predicted', True),
    (_dipole, (3.0, 0.0), 'field_squeezing_predicted', True),
    (_dipole, (1.0, 0.0), 'field_squeezing_predicted', False),
    (_dipole, (2.2, 1.2), 'field_squeezing_predicted', False),
]


@pytest.mark.parametrize(
    ("build", "args", "attribute", "want"),
    DERIVED_VALUES,
    ids=[f"{b.__name__}({', '.join(map(repr, a))}).{attr}" for b, a, attr, _ in DERIVED_VALUES],
)
def test_derived_attributes_read_the_values_the_stored_fields_held(build, args, attribute, want):
    assert repr(getattr(build(*args), attribute)) == repr(want)
