"""The package namespace: what `atomsqueeze` re-exports, in order."""

import pathlib
import types
import warnings

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
