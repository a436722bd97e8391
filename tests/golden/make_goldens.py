"""CLI golden outputs: the cases, how each output is fingerprinted, and regeneration.

Each case is one CLI invocation. Its golden entry holds the exit code, the
sha256 of the output with the timestamp line stripped, the header and key
names, and a numeric fingerprint: the count of numbers in the output plus
every `stride`-th number in full repr. Large outputs are never stored whole.

Regenerate `cli.json` beside this file (only when a change is meant to move
output bits, and then list each changed case in CHANGES.md):

    PYTHONPATH=src python tests/golden/make_goldens.py

Before it writes, it prints each case whose hash differs from the stored
one, with the largest relative difference over the stored numbers.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from atomsqueeze import cli

GOLDEN_PATH = Path(__file__).with_name("cli.json")
MAX_STORED_NUMBERS = 64

README = {
    "variance": ["--beta", "0.5", "--phi", "0"],
    "jc-sweep": ["--theta", "2.0944", "--phi", "1.5708", "--t-max", "6.2832", "--steps", "200"],
    "wigner": ["--beta", "0.57735", "--phi", "0", "--res", "201"],
    "homodyne": ["--beta", "0.5", "--samples", "100000", "--seed", "7"],
    "phase-scan": ["--beta", "0.5", "--phi", "1.5708", "--samples", "2000", "--seed", "7"],
    "budget": ["--collection", "0.94", "--lifetime-ns", "230", "--window-lifetimes", "5"],
    "window-sweep": [
        "--collection", "0.94", "--min-lifetimes", "0.5", "--max-lifetimes", "10", "--steps", "20",
    ],
}

# the config files of test_acceptance_09, run in each command's default format
CONFIGS = {
    "variance": "beta = 0.5\nphi = 0.25\n",
    "jc-sweep": "theta = 2.0\nt-max = 3.0\nsteps = 7\n",
    "wigner": "beta = 0.57735\nres = 41\n",
    "homodyne": "beta = 0.5\nsamples = 300\nseed = 21\n",
    "phase-scan": "beta = 0.5\nsamples = 300\nn-phases = 4\nseed = 22\n",
    "budget": "collection = 0.94\nwindow-lifetimes = 5\n",
    "window-sweep": "collection = 0.9\nmin-lifetimes = 1\nmax-lifetimes = 4\nsteps = 4\n",
}


def cases() -> dict[str, dict]:
    """Case id -> {"argv": [...], "config": text or None, "format": "json" | "csv"}."""
    out = {}
    for command, args in README.items():
        for fmt in ("json", "csv"):
            out[f"readme-{command}-{fmt}"] = {
                "argv": [command, *args, "--format", fmt], "config": None, "format": fmt,
            }
    for command, body in CONFIGS.items():
        out[f"config-{command}"] = {
            "argv": [command], "config": body, "format": cli.DEFAULT_FORMAT[command],
        }
    return out


def run_case(case: dict, workdir: Path) -> tuple[int, bytes]:
    """(exit code, output bytes) of one case, written under `workdir`."""
    argv = list(case["argv"])
    if case["config"] is not None:
        cfg = workdir / f"{argv[0]}.cfg"
        cfg.write_text(case["config"], encoding="utf-8")
        argv += ["--config", str(cfg)]
    target = workdir / "out"
    target.unlink(missing_ok=True)
    code = cli.main([*argv, "--out", str(target)])
    return code, target.read_bytes() if target.exists() else b""


def _is_timestamp(line: bytes) -> bool:
    return line.startswith(b"# timestamp: ") or line.lstrip().startswith(b'"timestamp": ')


def strip_timestamp(raw: bytes) -> bytes:
    return b"".join(line for line in raw.splitlines(keepends=True) if not _is_timestamp(line))


def _json_numbers(node, found: list) -> None:
    if isinstance(node, dict):
        for value in node.values():
            _json_numbers(value, found)
    elif isinstance(node, list):
        for value in node:
            _json_numbers(value, found)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        found.append(float(node))


def _csv_tokens(text: str) -> tuple[list[str], list[str], list[str]]:
    """(meta keys, header cells, every value token) of a CSV output."""
    keys, header, tokens = [], [], []
    for line in text.splitlines():
        if line.startswith("# timestamp: "):
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            keys.append(key)
            if key == "parameters":
                tokens += [pair.partition("=")[2] for pair in value.split(" ")]
            else:
                tokens.append(value)
        elif not header:
            header = line.split(",")
        else:
            tokens += line.split(",")
    return keys, header, tokens


def _as_number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def fingerprint(raw: bytes, fmt: str) -> dict:
    """Keys, header and numbers of an output, its timestamp left out."""
    text = raw.decode("utf-8")
    if not text:
        return {"keys": [], "header": [], "numbers": []}
    if fmt == "json":
        doc = json.loads(text)
        del doc["meta"]["timestamp"]
        keys = [*(f"meta.{k}" for k in doc["meta"]), *(f"result.{k}" for k in doc["result"])]
        header = doc["result"].get("columns", [])
        numbers: list = []
        _json_numbers(doc, numbers)
    else:
        keys, header, tokens = _csv_tokens(text)
        numbers = [x for x in map(_as_number, tokens) if x is not None]
    return {"keys": keys, "header": header, "numbers": numbers}


def golden_entry(case: dict, code: int, raw: bytes) -> dict:
    fp = fingerprint(raw, case["format"])
    numbers = fp["numbers"]
    stride = max(1, -(-len(numbers) // MAX_STORED_NUMBERS))
    return {
        "argv": case["argv"],
        "config": case["config"],
        "format": case["format"],
        "exit_code": code,
        "sha256": hashlib.sha256(strip_timestamp(raw)).hexdigest(),
        "keys": fp["keys"],
        "header": fp["header"],
        "count": len(numbers),
        "stride": stride,
        "numbers": [repr(x) for x in numbers[::stride]],
    }


def largest_relative_difference(got: list, want: list) -> float:
    """max |a - b| / max(|a|, |b|) over paired numbers (floats or repr strings); 0 if all equal."""
    pairs = zip(map(float, got), map(float, want))
    return max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs if a != b), default=0.0)


def report_changes(entries: dict) -> None:
    """Print each case whose sha256 differs from the stored golden, with its largest difference."""
    stored = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"] if GOLDEN_PATH.exists() else {}
    for name, entry in entries.items():
        old = stored.get(name)
        if old is None:
            print(f"new case {name}")
        elif old["sha256"] != entry["sha256"]:
            if old["count"] != entry["count"]:
                print(f"changed {name}: {old['count']} -> {entry['count']} numbers")
            else:
                diff = largest_relative_difference(entry["numbers"], old["numbers"])
                print(f"changed {name}: largest relative difference {diff:.3g} over the stored numbers")


def main() -> int:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in cases().items():
            code, raw = run_case(case, Path(tmp))
            entries[name] = golden_entry(case, code, raw)
    report_changes(entries)
    doc = {"numpy": np.__version__, "cases": entries}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
