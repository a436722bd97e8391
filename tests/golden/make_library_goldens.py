"""Library golden outputs: kernel results at n_max 1, 20, 52 and 100.

Each state is stored with its quadrature moments at 8 LO phases, the
diagonal of its density after loss at eta = 0.7, a 41 x 41 Wigner grid, the
sha256 of the int64 bits of `sample_quadratures` draws (1,000 and 10,000 at
a fixed seed, at the squeezed and the anti-squeezed phase, plus 1e6 at
n_max = 1) and, at n_max 1 and 20, the rows of an 8-phase `phase_scan`.
Every array keeps the sha256 of its bits; numbers are kept in full repr,
every `stride`-th one for arrays longer than MAX_STORED_NUMBERS.

Regenerate `library.json` beside this file (only when a change is meant to
move output bits, and then list each changed entry in CHANGES.md):

    PYTHONPATH=src python tests/golden/make_library_goldens.py

Before it writes, it prints each entry whose hash differs from the stored
one, with the largest relative difference over the stored numbers (draws
are stored as hashes only).
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from atomsqueeze import fock, homodyne, superposition, wigner
from atomsqueeze.superposition import SuperpositionSpec

GOLDEN_PATH = Path(__file__).with_name("library.json")
MAX_STORED_NUMBERS = 64
PHASES = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
LOSS_ETA = 0.7
WIGNER_RES = 41
SEED = 2026
DRAW_SIZES = (1_000, 10_000)
LONG_DRAW = 1_000_000  # at n_max = 1 only
SCAN = {"eta_total": 0.9, "n_samples": 400, "seed": 17, "n_phases": 8}


def states() -> dict[str, dict]:
    """Name -> {"state", "squeezed" LO phase, "anti" LO phase, "scan": bool}."""
    # the optimal superposition, beta = 1/2 at relative phase pi/2, squeezes X_{pi/2}
    optimal = fock.to_density(superposition.make_superposition(SuperpositionSpec(0.5, math.pi / 2.0)))
    out = {"n1": {"state": optimal, "squeezed": math.pi / 2.0, "anti": 0.0, "scan": True}}
    for n_max in (20, 52, 100):
        # S(xi)|0> with real xi > 0 squeezes X_0 and stretches X_{pi/2}
        vec, _ = superposition.squeezed_vacuum(0.75, n_max)
        out[f"n{n_max}"] = {
            "state": fock.to_density(vec), "squeezed": 0.0, "anti": math.pi / 2.0, "scan": n_max == 20,
        }
    return out


def bits_sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).view(np.int64).tobytes()).hexdigest()


def array_entry(a) -> dict:
    """sha256 of the bits, shape, and every `stride`-th number in full repr."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    stride = max(1, -(-flat.size // MAX_STORED_NUMBERS))
    return {
        "sha256": bits_sha256(a),
        "shape": list(a.shape),
        "stride": stride,
        "numbers": [repr(float(x)) for x in flat[::stride]],
    }


def draws(state, phi_lo: float, n: int) -> np.ndarray:
    run = homodyne.HomodyneRun(state=state, phi_lo=phi_lo, eta_total=1.0, n_samples=n, seed=SEED)
    return homodyne.sample_quadratures(run)


def compute(name: str, spec: dict) -> dict:
    """Every stored quantity of one state, as arrays (draws as their hash)."""
    state = spec["state"]
    stats = [fock.quadrature_stats(state, float(phi)) for phi in PHASES]
    out = {
        "quadrature_stats": array_entry([[s.mean, s.variance] for s in stats]),
        "loss_diagonal": array_entry(np.diag(fock.apply_loss(state, LOSS_ETA).matrix).real),
        "wigner": array_entry(wigner.wigner_of_state(state, resolution=WIGNER_RES).values),
        "draws": {
            f"{side}-{n}": bits_sha256(draws(state, spec[side], n))
            for side in ("squeezed", "anti")
            for n in DRAW_SIZES
        },
    }
    if name == "n1":
        out["draws"][f"squeezed-{LONG_DRAW}"] = bits_sha256(draws(state, spec["squeezed"], LONG_DRAW))
    if spec["scan"]:
        out["phase_scan"] = array_entry(homodyne.phase_scan(state, **SCAN))
    return out


def largest_relative_difference(got: list, want: list) -> float:
    """max |a - b| / max(|a|, |b|) over paired numbers (floats or repr strings); 0 if all equal."""
    pairs = zip(map(float, got), map(float, want))
    return max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs if a != b), default=0.0)


def report_changes(entries: dict) -> None:
    """Print each entry whose sha256 differs from the stored golden, with its largest difference."""
    stored = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["states"] if GOLDEN_PATH.exists() else {}
    for name, entry in entries.items():
        old = stored.get(name, {})
        for key, value in entry.items():
            if key == "draws":
                for draw, digest in value.items():
                    if old.get(key, {}).get(draw) != digest:
                        print(f"changed {name}.draws.{draw}: sample bits moved (stored as a hash only)")
            elif key not in old:
                print(f"new entry {name}.{key}")
            elif old[key]["sha256"] != value["sha256"]:
                diff = largest_relative_difference(value["numbers"], old[key]["numbers"])
                print(f"changed {name}.{key}: largest relative difference {diff:.3g} over the stored numbers")


def main() -> int:
    entries = {name: compute(name, spec) for name, spec in states().items()}
    report_changes(entries)
    doc = {"numpy": np.__version__, "states": entries}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} states to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
