"""CLI outputs against stored goldens: the numbers must not change.

The goldens in `golden/cli.json` cover the seven README invocations in JSON
and in CSV plus the acceptance-09 config files. `golden/make_goldens.py`
regenerates them; a change that moves output bits must list each changed
case in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atomsqueeze import cli
from golden import make_goldens

GOLDENS = json.loads(make_goldens.GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = make_goldens.cases()
NUMPY_NOTE = f"goldens made with numpy {GOLDENS['numpy']}, running numpy {np.__version__}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Case id -> (exit code, output bytes), each case run once per module."""
    workdir = tmp_path_factory.mktemp("golden")
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = make_goldens.run_case(CASES[name], workdir)
        return cache[name]

    return get


def test_golden_cases_are_the_stored_ones():
    assert sorted(GOLDENS["cases"]) == sorted(CASES)
    for name, case in CASES.items():
        stored = GOLDENS["cases"][name]
        assert (stored["argv"], stored["config"], stored["format"]) == (
            case["argv"], case["config"], case["format"],
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_numbers_match_and_structure_is_exact(name, outputs):
    golden = GOLDENS["cases"][name]
    code, raw = outputs(name)
    assert code == golden["exit_code"]
    fp = make_goldens.fingerprint(raw, golden["format"])
    assert fp["keys"] == golden["keys"]
    assert fp["header"] == golden["header"]
    numbers = fp["numbers"]
    assert len(numbers) == golden["count"]
    for i, (got, want) in enumerate(zip(numbers[:: golden["stride"]], golden["numbers"])):
        want = float(want)
        assert got == want or abs(got - want) <= 1e-12 * max(abs(got), abs(want)), (
            f"{name}: number {i * golden['stride']} is {got!r}, golden {want!r} ({NUMPY_NOTE})"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes_match_the_stored_hash(name, outputs):
    golden = GOLDENS["cases"][name]
    _, raw = outputs(name)
    digest = hashlib.sha256(make_goldens.strip_timestamp(raw)).hexdigest()
    assert digest == golden["sha256"], f"{name}: output bytes moved ({NUMPY_NOTE})"


def test_golden_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A sum that BLAS splits across threads moves its last bit with their count."""
    name = "readme-homodyne-json"
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])
        target = tmp_path / f"out-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "atomsqueeze.cli", *CASES[name]["argv"], "--out", str(target)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(make_goldens.strip_timestamp(target.read_bytes())).hexdigest())
    assert digests == [GOLDENS["cases"][name]["sha256"]] * 2
