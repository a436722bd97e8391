"""Paths and process environment shared by the benchmark's entry points.

The benchmark always measures the package in the checkout it sits in
(`<root>/src/atomsqueeze`), never an installed copy, and pins BLAS to one
thread for itself and every process it starts: the reference host has two
cores, and unpinned BLAS timings there swing by an order of magnitude.
"""

import importlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# what a fresh interpreter imports to set each workload up
IMPORT_NAMES = {
    "cli_readme": "atomsqueeze.cli",
    "fock_truncation": "atomsqueeze",
    "atom_sweep": "atomsqueeze",
}

# precedes the span payload a traced CLI child appends to its stderr
TRACE_MARKER = "@@bench-trace@@ "

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_blas() -> None:
    """Set the BLAS thread variables; call before numpy is first imported."""
    os.environ.update(BLAS_ENV)


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class PackageMissing(Exception):
    """The checkout has no importable atomsqueeze under src/."""


def import_package(module: str = "atomsqueeze"):
    """Import `module` from the checkout's src/ and return it.

    Raises PackageMissing when src/ is absent or the import resolves to a
    copy of atomsqueeze outside this checkout.
    """
    if not (SRC / "atomsqueeze" / "__init__.py").is_file():
        raise PackageMissing(f"no atomsqueeze package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(module)
    origin = Path(mod.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise PackageMissing(f"{module} resolved to {origin}, outside {SRC}")
    return mod
