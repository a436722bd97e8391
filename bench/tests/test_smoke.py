"""Smoke test of the benchmark harness: metric names and units, failure counting.

Decks are cut to a few requests so the file runs in well under a minute:

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.pin_blas()
common.import_package()

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(common.SPEC_PATH.read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.fixture
def short_decks(monkeypatch):
    """One cold set-up per run and decks of two or three requests."""
    monkeypatch.setattr(run, "N_SETUPS", 1)

    def cut(cls, keep):
        full = cls.deck
        monkeypatch.setattr(cls, "deck", lambda self, seed, index: keep(full(self, seed, index)))

    cut(workloads.CliReadme, lambda d: d[:2])  # variance (json), jc-sweep (csv)
    cut(workloads.FockTruncation, lambda d: [r for r in d if r.tag == "n1"][:2] + [r for r in d if r.tag == "n20"][:1])
    cut(workloads.AtomSweep, lambda d: d[:1])


def _result(capsys, *args) -> tuple[int, dict, str]:
    code = run.main(["--seed", "3", "--seconds", "0.01", *args])
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[-1]), out


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(short_decks, capsys, workload, trace):
    code, result, out = _result(capsys, "--workload", workload, "--trace", trace)
    assert code == 0
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0.0, m["name"]
        assert f"{m['name']} " in out
    assert "fail_ratio" in out


def test_corrupted_fock_output_counts_as_failed(short_decks, capsys, monkeypatch):
    honest = workloads.FockTruncation.execute

    def corrupted(self, req, rec=None):
        out = honest(self, req, rec)
        first = out["stats"][0]
        out["stats"][0] = replace(first, variance=first.variance + 1e-9)
        return out

    monkeypatch.setattr(workloads.FockTruncation, "execute", corrupted)
    _, result, out = _result(capsys, "--workload", "fock_truncation")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "eta V + (1-eta)/4" in out


def test_corrupted_cli_output_counts_as_failed(short_decks, capsys, monkeypatch):
    honest = workloads.CliReadme.execute

    def corrupted(self, req, rec=None):
        return honest(self, req, rec).replace('"min_variance": 0.1875', '"min_variance": 0.1876')

    monkeypatch.setattr(workloads.CliReadme, "execute", corrupted)
    _, result, _ = _result(capsys, "--workload", "cli_readme")
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2


def test_raising_request_counts_as_failed_but_not_incorrect(short_decks, capsys, monkeypatch):
    def broken(self, req, rec=None):
        raise workloads.RequestError("exit 3: simulated")

    monkeypatch.setattr(workloads.CliReadme, "execute", broken)
    _, result, _ = _result(capsys, "--workload", "cli_readme")
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] >= 2


def test_exits_nonzero_without_result_when_package_is_absent(tmp_path):
    shutil.copy(common.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cli_readme", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
