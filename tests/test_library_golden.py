"""Library kernels against stored goldens: the numbers must not change.

The goldens in `golden/library.json` hold quadrature moments, the loss
diagonal, a Wigner grid, sample-draw hashes and phase-scan rows at n_max 1,
20, 52 and 100. `golden/make_library_goldens.py` regenerates them; a change
that moves bits must list each changed entry in CHANGES.md.
"""

import json

import numpy as np
import pytest

from golden import make_library_goldens as lib

GOLDENS = json.loads(lib.GOLDEN_PATH.read_text(encoding="utf-8"))
STATES = lib.states()
NUMPY_NOTE = f"goldens made with numpy {GOLDENS['numpy']}, running numpy {np.__version__}"


@pytest.fixture(scope="module")
def computed():
    """State name -> its freshly computed golden entry, each computed once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = lib.compute(name, STATES[name])
        return cache[name]

    return get


def _arrays(entry: dict) -> dict:
    return {key: value for key, value in entry.items() if key != "draws"}


def test_library_golden_states_and_entries_are_the_stored_ones():
    assert sorted(GOLDENS["states"]) == sorted(STATES)
    for name, stored in GOLDENS["states"].items():
        assert ("phase_scan" in stored) == STATES[name]["scan"]


@pytest.mark.parametrize("name", sorted(STATES))
def test_library_golden_numbers_match(name, computed):
    stored = GOLDENS["states"][name]
    got = computed(name)
    assert sorted(got) == sorted(stored)
    for key, want in _arrays(stored).items():
        entry = got[key]
        assert (entry["shape"], entry["stride"]) == (want["shape"], want["stride"]), key
        assert len(entry["numbers"]) == len(want["numbers"]), key
        for i, (a, b) in enumerate(zip(map(float, entry["numbers"]), map(float, want["numbers"]))):
            assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (
                f"{name}.{key}: number {i * want['stride']} is {a!r}, golden {b!r} ({NUMPY_NOTE})"
            )


@pytest.mark.parametrize("name", sorted(STATES))
def test_library_golden_bits_match(name, computed):
    stored = GOLDENS["states"][name]
    got = computed(name)
    assert got["draws"] == stored["draws"], f"{name}: sample bits moved ({NUMPY_NOTE})"
    for key, want in _arrays(stored).items():
        assert got[key]["sha256"] == want["sha256"], f"{name}.{key}: bits moved ({NUMPY_NOTE})"
