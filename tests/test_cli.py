"""Command line front end: config layering, formats, provenance, exit codes."""

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from atomsqueeze import cli, fock, homodyne, jaynes_cummings as jc, modes, superposition, wigner
from atomsqueeze.closed_forms import SuperpositionSpec, _linspace, _transient_rows
from atomsqueeze.errors import AtomSqueezeError, DegenerateData, InvalidParameter, InvalidState, NotSupported


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "timestamp" not in line)


def _run_to_text(argv, tmp_path, name: str) -> str:
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _csv_body(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


# ------------------------------------------------------------------ config

def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment only\nbeta = 0.5  # trailing\nphi=0.25\nn_phases = 8\n\n")
    values = cli.parse_config_file(str(cfg))
    assert values == {"beta": "0.5", "phi": "0.25", "n-phases": "8"}


def test_parse_config_rejects_duplicates_with_line_number(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("beta = 0.5\nbeta = 0.7\n")
    with pytest.raises(InvalidParameter, match="line 2.*duplicate"):
        cli.parse_config_file(str(cfg))


def test_parse_config_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a token\n")
    with pytest.raises(InvalidParameter, match="line 1"):
        cli.parse_config_file(str(cfg))
    cfg.write_text("beta =\n")
    with pytest.raises(InvalidParameter, match="empty key or value"):
        cli.parse_config_file(str(cfg))


def test_resolve_params_precedence():
    params, explicit = cli.resolve_params("variance", {"beta": "0.4", "phi": "1.0"}, {"phi": 2.0})
    assert params == {"beta": 0.4, "phi": 2.0}  # flag beats config beats default
    assert explicit == {"beta", "phi"}
    params, _ = cli.resolve_params("variance", {}, {"beta": 0.4})
    assert params["phi"] == 0.0


def test_resolve_params_errors_name_the_key():
    with pytest.raises(InvalidParameter, match="unknown config key 'gamma'"):
        cli.resolve_params("variance", {"gamma": "1.0"}, {})
    with pytest.raises(InvalidParameter, match="missing required parameter 'beta'"):
        cli.resolve_params("variance", {}, {})
    with pytest.raises(InvalidParameter, match="'beta' as float"):
        cli.resolve_params("variance", {"beta": "half"}, {})


def test_resolve_params_rejects_nan_keeps_inf():
    with pytest.raises(InvalidParameter, match="'window-lifetimes' is NaN"):
        cli.resolve_params("budget", {"collection": "0.9"}, {"window-lifetimes": math.nan})
    with pytest.raises(InvalidParameter, match="'beta' is NaN"):
        cli.resolve_params("variance", {"beta": "nan"}, {})
    params, _ = cli.resolve_params("budget", {"window-lifetimes": "inf"}, {"collection": 0.9})
    assert params["window-lifetimes"] == math.inf


# ------------------------------------------------------------------ variance

def test_variance_json_values(tmp_path):
    text = _run_to_text(["variance", "--beta", "0.5", "--phi", "0"], tmp_path, "v.json")
    doc = json.loads(text)
    res = doc["result"]
    assert res["variance_x1"] == 0.1875
    assert round(res["db_x1"], 4) == -1.2494
    assert res["variance_x2"] == 0.375
    assert res["min_variance"] == 0.1875
    assert res["squeezed"] is True
    meta = doc["meta"]
    assert meta["artifact"] == "atomsqueeze"
    assert meta["command"] == "variance"
    assert meta["parameters"] == {"beta": 0.5, "phi": 0.0}
    assert meta["n_max"] == 1
    assert list(meta)[-1] == "timestamp"


def test_variance_csv_scalar_table(tmp_path):
    text = _run_to_text(["variance", "--beta", "0.5", "--format", "csv"], tmp_path, "v.csv")
    body = _csv_body(text)
    header = body[0].split(",")
    row = body[1].split(",")
    values = dict(zip(header, row))
    assert values["variance_x1"] == "0.1875"
    assert values["squeezed"] == "true"
    # floats are written in repr form: parsing them back is lossless
    assert repr(float(values["db_x1"])) == values["db_x1"]


# ------------------------------------------------------------------- sweeps

def test_jc_sweep_csv_matches_closed_forms(tmp_path):
    theta = 2.0 * math.pi / 3.0
    text = _run_to_text(
        ["jc-sweep", "--theta", repr(theta), "--phi", repr(math.pi / 2.0),
         "--t-max", repr(math.pi), "--steps", "5"],
        tmp_path, "sweep.csv",
    )
    body = _csv_body(text)
    assert body[0] == "t,variance_x1,variance_x2,db_x1,db_x2"
    rows = [list(map(float, line.split(","))) for line in body[1:]]
    assert len(rows) == 5
    prep = jc.AtomPrep(theta=theta, phi=math.pi / 2.0)
    for t, v1, v2, db1, db2 in rows:
        e1, e2 = jc.closed_form_variances(prep, t)
        assert abs(v1 - e1) < 1e-12
        assert abs(v2 - e2) < 1e-12
        assert abs(db1 - fock.variance_to_db(v1)) < 1e-12
    cell = body[2].split(",")[1]
    assert repr(float(cell)) == cell


def test_window_sweep_csv_values(tmp_path):
    text = _run_to_text(
        ["window-sweep", "--collection", "0.94", "--min-lifetimes", "1",
         "--max-lifetimes", "5", "--steps", "3"],
        tmp_path, "w.csv",
    )
    body = _csv_body(text)
    assert body[0] == "window_s,window_lifetimes,eta_overlap,detected_db"
    rows = [list(map(float, line.split(","))) for line in body[1:]]
    for (w_s, w_lt, overlap, db), expected in zip(rows, (1.0, 3.0, 5.0)):
        assert abs(w_lt - expected) < 1e-12
        assert abs(overlap - (1.0 - math.exp(-expected))) < 1e-9
    assert rows[0][3] > rows[1][3] > rows[2][3]


# ------------------------------------------------------------------- wigner

def test_wigner_csv_origin_value(tmp_path):
    text = _run_to_text(
        ["wigner", "--beta", "0.57735", "--phi", "0", "--res", "201"], tmp_path, "w.csv"
    )
    lines = text.splitlines()
    assert any(line.startswith("# convention: vacuum-variance=1/4") for line in lines)
    assert any(line.startswith("# integral: ") for line in lines)
    body = _csv_body(text)
    assert body[0] == "x1,x2,w"
    origin = [line for line in body[1:] if line.startswith("0.0,0.0,")]
    assert len(origin) == 1
    w00 = float(origin[0].split(",")[2])
    assert round(w00, 5) == 0.21221


def test_wigner_json_grid_layout(tmp_path):
    text = _run_to_text(
        ["wigner", "--beta", "0.5", "--res", "21", "--format", "json"], tmp_path, "w.json"
    )
    doc = json.loads(text)
    res = doc["result"]
    assert res["x1_range"] == [-4.0, 4.0]
    assert res["x2_range"] == [-4.0, 4.0]
    assert res["resolution"] == 21
    assert res["convention"] == "vacuum-variance=1/4"
    assert len(res["values"]) == 21 and len(res["values"][0]) == 21
    assert abs(res["integral"] - 1.0) < 0.01
    assert doc["meta"]["convention"] == "vacuum-variance=1/4"


# ----------------------------------------------------------------- homodyne

def test_homodyne_json_values_and_provenance(tmp_path):
    text = _run_to_text(
        ["homodyne", "--beta", "0.5", "--phi", "0", "--samples", "500", "--seed", "7"],
        tmp_path, "h.json",
    )
    doc = json.loads(text)
    res = doc["result"]
    assert res["n"] == 500
    assert abs(res["exact_variance"] - 0.1875) < 1e-12
    assert abs(res["db_hat"] - fock.variance_to_db(res["var_hat"])) < 1e-12
    assert res["std_error_of_var"] > 0.0
    meta = doc["meta"]
    assert meta["seed"] == 7
    assert meta["rng"] == "numpy-philox4x64"
    assert list(meta)[-1] == "timestamp"


def test_homodyne_csv_dumps_samples(tmp_path):
    text = _run_to_text(
        ["homodyne", "--beta", "0.5", "--samples", "120", "--seed", "9", "--format", "csv"],
        tmp_path, "h.csv",
    )
    lines = text.splitlines()
    assert "# seed: 9" in lines
    assert "# rng: numpy-philox4x64" in lines
    body = _csv_body(text)
    assert body[0] == "sample"
    assert len(body) == 121
    assert repr(float(body[1])) == body[1]


def test_phase_scan_csv_layout(tmp_path):
    text = _run_to_text(
        ["phase-scan", "--beta", "0.5", "--samples", "200", "--n-phases", "4", "--seed", "3"],
        tmp_path, "p.csv",
    )
    body = _csv_body(text)
    assert body[0] == "phi_lo,var_hat,db_hat,std_error,var_exact,db_exact"
    rows = [list(map(float, line.split(","))) for line in body[1:]]
    assert len(rows) == 4
    assert np.allclose([r[0] for r in rows], [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], atol=1e-12)
    assert abs(rows[0][4] - 0.1875) < 1e-12


# ------------------------------------------------------------------- budget

def test_budget_json_reference_values(tmp_path):
    text = _run_to_text(
        ["budget", "--collection", "0.94", "--lifetime-ns", "230", "--window-lifetimes", "5"],
        tmp_path, "b.json",
    )
    res = json.loads(text)["result"]
    assert res["preset"] == "custom"
    assert abs(res["lifetime_s"] - 230e-9) < 1e-20
    assert abs(res["linewidth_hz"] - 691978.0134430233) < 1e-6
    assert abs(res["eta_overlap"] - (1.0 - math.exp(-5.0))) < 1e-9
    assert abs(res["eta_total"] - 0.9336663298208593) < 1e-12
    assert res["input_variance"] == 0.1875
    assert abs(res["detected_variance"] - 0.1916458543861963) < 1e-12
    assert abs(res["detected_db"] - (-1.1546)) < 1e-3
    assert res["lo_window_lifetimes"] == 5.0


def test_budget_preset_and_untruncated_window(tmp_path):
    text = _run_to_text(
        ["budget", "--collection", "0.94", "--preset", "yb2+_3p1"], tmp_path, "b2.json"
    )
    res = json.loads(text)["result"]
    assert res["preset"] == "yb2+_3p1"
    assert res["lo_window_lifetimes"] == "inf"  # non-finite floats serialize as repr strings
    assert abs(res["eta_overlap"] - 1.0) < 1e-9
    assert abs(res["eta_total"] - 0.94) < 1e-9


def test_budget_rejects_preset_lifetime_conflict(tmp_path, capsys):
    code = cli.main(
        ["budget", "--collection", "0.94", "--preset", "yb2+_3p1", "--lifetime-ns", "100"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: parameter:")


def test_budget_tiny_lo_rate_untruncated(tmp_path):
    text = _run_to_text(
        ["budget", "--collection", "0.9", "--lo-rate-factor", "1e-300"], tmp_path, "tiny.json"
    )
    res = json.loads(text)["result"]
    # 4 a b / (a + b)^2 with b / a = 1e-300
    assert abs(res["eta_overlap"] - 4e-300) <= 1e-12 * 4e-300


def test_budget_tiny_lo_rate_truncated(tmp_path):
    text = _run_to_text(
        ["budget", "--collection", "0.9", "--lo-rate-factor", "1e-300", "--window-lifetimes", "5"],
        tmp_path, "tiny-window.json",
    )
    res = json.loads(text)["result"]
    # a flat LO on [0, 5 tau] against e^{-t / (2 tau)}
    assert abs(res["eta_overlap"] - 0.8 * (1.0 - math.exp(-2.5)) ** 2) < 1e-12


def test_budget_subnormal_window(tmp_path):
    # a 1e-300-lifetime window is subnormal in seconds; the LO amplitude is ~1e154
    argv = ["budget", "--collection", "0.5", "--lifetime-ns", "1.33", "--window-lifetimes", "1e-300"]
    res = json.loads(_run_to_text(argv, tmp_path, "short.json"))["result"]
    # a flat LO on [0, W] against the emission: eta_overlap = W / tau
    assert abs(res["eta_overlap"] - 1e-300) <= 1e-12 * 1e-300


def test_budget_nan_window_flag_exits_2(tmp_path, capsys):
    assert cli.main(["budget", "--collection", "0.9", "--window-lifetimes", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameter:")
    assert "'window-lifetimes' is NaN" in captured.err
    # inf keeps meaning an untruncated LO
    text = _run_to_text(
        ["budget", "--collection", "0.9", "--window-lifetimes", "inf"], tmp_path, "inf.json"
    )
    assert json.loads(text)["result"]["lo_window_lifetimes"] == "inf"


def test_budget_nan_window_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("collection = 0.9\nwindow-lifetimes = nan\n")
    assert cli.main(["budget", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'window-lifetimes' is NaN" in captured.err


def test_budget_subnormal_lifetime_exits_2_naming_the_lifetime(capsys):
    assert cli.main(["budget", "--collection", "0.5", "--lifetime-ns", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameter: lifetime 1e-309")
    assert "gamma_rate" not in captured.err


def test_homodyne_non_finite_lo_phase_exits_2(capsys):
    base = ["homodyne", "--beta", "0.5", "--samples", "1000", "--seed", "1"]
    assert cli.main([*base, "--lo-phase", "nan"]) == 2
    assert "'lo-phase' is NaN" in capsys.readouterr().err
    assert cli.main([*base, "--lo-phase", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter:")
    assert "phi_lo must be finite" in err
    assert "var_hat" not in err


# ------------------------------------------------------------- determinism

CASES = [
    ["variance", "--beta", "0.5"],
    ["jc-sweep", "--theta", "2.0", "--t-max", "3.0", "--steps", "5"],
    ["wigner", "--beta", "0.5", "--res", "17"],
    ["homodyne", "--beta", "0.5", "--samples", "200", "--seed", "11"],
    ["phase-scan", "--beta", "0.5", "--samples", "200", "--n-phases", "4", "--seed", "12"],
    ["budget", "--collection", "0.94", "--window-lifetimes", "5"],
    ["window-sweep", "--collection", "0.9", "--min-lifetimes", "1", "--max-lifetimes", "4", "--steps", "3"],
]


@pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
def test_repeat_runs_are_identical_up_to_timestamp(argv, tmp_path):
    first = _run_to_text(argv, tmp_path, "a.out")
    second = _run_to_text(argv, tmp_path, "b.out")
    assert first != second  # the timestamp moved
    assert _strip_timestamp(first) == _strip_timestamp(second)


def test_config_file_equals_flags(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("beta = 0.5\nphi = 0.25\n")
    by_flags = _run_to_text(["variance", "--beta", "0.5", "--phi", "0.25"], tmp_path, "f.json")
    by_config = _run_to_text(["variance", "--config", str(cfg)], tmp_path, "c.json")
    assert _strip_timestamp(by_flags) == _strip_timestamp(by_config)


def test_stdout_matches_file_output(tmp_path, capsys):
    assert cli.main(["variance", "--beta", "0.5"]) == 0
    streamed = capsys.readouterr().out
    saved = _run_to_text(["variance", "--beta", "0.5"], tmp_path, "s.json")
    assert _strip_timestamp(streamed) == _strip_timestamp(saved)


def test_csv_timestamp_is_last_meta_line(tmp_path):
    text = _run_to_text(["jc-sweep", "--theta", "1.0", "--t-max", "1.0", "--steps", "3"],
                        tmp_path, "t.csv")
    meta_lines = [line for line in text.splitlines() if line.startswith("#")]
    assert meta_lines[-1].startswith("# timestamp: ")


# ------------------------------------------------------------------ exit codes

def test_missing_required_parameter_exits_2(capsys):
    assert cli.main(["variance"]) == 2
    assert capsys.readouterr().err.startswith("error: parameter:")


def test_unparseable_flag_exits_2(capsys):
    assert cli.main(["variance", "--beta", "half"]) == 2


def test_unknown_command_exits_2(capsys):
    assert cli.main(["entangle"]) == 2


def test_missing_seed_exits_2(capsys):
    assert cli.main(["homodyne", "--beta", "0.5", "--samples", "200"]) == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("gamma = 1.0\n")
    assert cli.main(["variance", "--beta", "0.5", "--config", str(cfg)]) == 2
    assert "gamma" in capsys.readouterr().err


def test_non_utf8_config_exits_2_naming_the_file_and_offset(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"beta = 0.5\xff\n")
    assert cli.main(["variance", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameter: config file")
    assert str(cfg) in captured.err
    assert "offset 10" in captured.err


def test_out_of_range_parameter_exits_2(capsys):
    assert cli.main(["variance", "--beta", "1.5"]) == 2
    assert capsys.readouterr().err.startswith("error: parameter:")


def test_unwritable_output_exits_4(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    assert cli.main(["variance", "--beta", "0.5", "--out", str(target)]) == 4
    assert capsys.readouterr().err.startswith("error: io:")


def test_version_flag_exits_0(capsys):
    assert cli.main(["--version"]) == 0
    assert "atomsqueeze" in capsys.readouterr().out


def test_numeric_failures_exit_3(monkeypatch, capsys):
    def broken(params, explicit):
        raise InvalidState("numerically impossible")

    monkeypatch.setitem(cli.HANDLERS, "variance", broken)
    assert cli.main(["variance", "--beta", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("error: state:")

    def degenerate(params, explicit):
        raise DegenerateData("flat samples")

    monkeypatch.setitem(cli.HANDLERS, "variance", degenerate)
    assert cli.main(["variance", "--beta", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("error: data:")


def test_non_finite_wigner_grid_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(wigner, "_displacement_kernel", lambda rho, alpha: np.full(alpha.shape, np.nan))
    argv = ["wigner", "--beta", "0.5", "--res", "16", "--format", "json"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: state:")


def test_overflowing_wigner_range_exits_2_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "atomsqueeze.cli", "wigner", "--beta", "0.5", "--range", "1e200"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: parameter: axis range must lie within")
    assert proc.stderr.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("flag", "value"),
    [("max-lifetimes", "inf"), ("min-lifetimes", "inf"), ("min-lifetimes", "-inf"), ("min-lifetimes", "-1e308")],
)
def test_window_sweep_bound_out_of_domain_exits_2_naming_the_flag(flag, value, capsys):
    # np.linspace warns on such a bound and yields NaN windows, so each bound
    # is checked before the grid is built, under a message naming its flag
    assert cli.main(["window-sweep", "--collection", "0.5", f"--{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter: {flag} must be finite and > 0, got {float(value)!r}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("flag", "bounds"),
    [("max-lifetimes", ["--max-lifetimes", "1e300"]),
     ("min-lifetimes", ["--min-lifetimes", "1e300", "--max-lifetimes", "1"])],
)
def test_window_sweep_bound_whose_window_overflows_exits_2_naming_the_flag(flag, bounds, capsys):
    # each bound is finite, but times a 1e291 s lifetime it is not: the window
    # in seconds is checked before the grid is scaled, under the flag's name
    argv = ["window-sweep", "--collection", "0.5", "--lifetime-ns", "1e300", *bounds]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter: {flag} x lifetime must be finite, got inf\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("lo", "hi"), [("5", "1"), ("1", "1")])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_window_sweep_bounds_out_of_order_exit_2_naming_both_flags(lo, hi, source, tmp_path, capsys):
    if source == "flags":
        argv = ["window-sweep", "--collection", "0.5", "--min-lifetimes", lo, "--max-lifetimes", hi]
    else:
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(f"collection = 0.5\nmin-lifetimes = {lo}\nmax-lifetimes = {hi}\n")
        argv = ["window-sweep", "--config", str(cfg)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: parameter: min-lifetimes must be < max-lifetimes, got {float(lo)!r} and {float(hi)!r}\n"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("lifetime_ns", "lo", "hi", "steps"),
    [("230", "1", "1.0000000000000002", "100"),  # fewer distinct doubles than steps
     ("1e-290", "1e-30", "10", "20")],  # the shortest window underflows to 0 seconds
)
def test_window_sweep_grid_that_does_not_ascend_exits_2_naming_its_flags(lifetime_ns, lo, hi, steps, capsys):
    argv = ["window-sweep", "--collection", "0.9", "--lifetime-ns", lifetime_ns,
            "--min-lifetimes", lo, "--max-lifetimes", hi, "--steps", steps]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: parameter: min-lifetimes {float(lo)!r}, max-lifetimes {float(hi)!r} and steps {steps}"
        " give no strictly ascending grid of positive windows"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("t_max", "steps"), [("5e-324", "5"), ("1e-320", "3000"), ("5e-324", "3")])
def test_jc_sweep_time_grid_that_does_not_ascend_exits_2_naming_its_flags(t_max, steps, capsys):
    # a range holding fewer doubles than steps repeats a time
    assert cli.main(["jc-sweep", "--theta", "2", "--t-max", t_max, "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: parameter: t-max {float(t_max)!r} and steps {steps} give no strictly ascending time grid\n"
    )


def test_jc_sweep_subnormal_time_grid_that_ascends_runs(capsys):
    assert cli.main(["jc-sweep", "--theta", "2", "--t-max", "5e-324", "--steps", "2", "--format", "csv"]) == 0
    assert [line.split(",")[0] for line in _csv_body(capsys.readouterr().out)] == ["t", "0.0", "5e-324"]
    # the library sweep keeps its repeated times; only the command rejects them
    rows = jc.transient_sweep(jc.AtomPrep(theta=2.0, phi=0.0), jc.JCParams(0.0, 0.0, 1.0), 5e-324, 5)
    assert rows[:, 0].tolist() == [0.0, 0.0, 0.0, 5e-324, 5e-324]


@pytest.mark.parametrize("command", ["budget", "window-sweep"])
@pytest.mark.parametrize("value", ["-5", "0", "inf"])
def test_lifetime_ns_out_of_domain_exits_2_naming_the_flag(command, value, capsys):
    # the message names the flag and the nanoseconds typed, not the lifetime in seconds
    assert cli.main([command, "--collection", "0.5", f"--lifetime-ns={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter: lifetime-ns must be finite and > 0, got {float(value)!r}\n"


@pytest.mark.parametrize("value", ["0", "-1", "-inf"])
def test_budget_non_positive_window_exits_2(value, capsys):
    assert cli.main(["budget", "--collection", "0.5", f"--window-lifetimes={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter: window-lifetimes must be > 0, got {float(value)!r}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("value", "message"),
    [("-1", "lo-rate-factor must be finite and > 0, got -1.0"),
     ("0", "lo-rate-factor must be finite and > 0, got 0.0"),
     ("inf", "lo-rate-factor must be finite and > 0, got inf"),
     ("1e303", "lo-rate-factor x gamma/2 must be finite and > 0, got inf")],
)
def test_budget_lo_rate_factor_out_of_domain_exits_2_naming_the_flag(value, message, capsys):
    # 1e303 is finite, but times gamma/2 = 2.2e6 /s it is not: the LO rate is checked under the flag
    assert cli.main(["budget", "--collection", "0.5", f"--lo-rate-factor={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["5e-324", "1e-320"])
def test_budget_untruncated_lo_whose_norm_overflows_exits_2_naming_the_flag(value, capsys):
    # the untruncated LO's norm integral is 1 / (2 rate), past the float maximum for these rates
    assert cli.main(["budget", "--collection", "0.5", f"--lo-rate-factor={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter: 1 / (2 x lo-rate-factor x gamma/2) must be finite, got inf\n"


@pytest.mark.parametrize("value", ["5e-324", "1e-320"])
def test_budget_truncated_lo_of_a_subnormal_rate_runs(value, tmp_path):
    argv = ["budget", "--collection", "0.9", f"--lo-rate-factor={value}", "--window-lifetimes", "5"]
    res = json.loads(_run_to_text(argv, tmp_path, "subnormal.json"))["result"]
    # a flat LO on [0, 5 tau] against e^{-t / (2 tau)}, as at lo-rate-factor 1e-300
    assert abs(res["eta_overlap"] - 0.8 * (1.0 - math.exp(-2.5)) ** 2) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("lifetime_ns", "window", "got"),
    [("1e-290", "1e-30", "0.0"), ("1e300", "1e300", "inf")],
)
def test_budget_window_whose_seconds_leave_the_range_exits_2_naming_the_flag(lifetime_ns, window, got, capsys):
    # each flag is in range, but the window in seconds under- or overflows
    argv = ["budget", "--collection", "0.5", "--lifetime-ns", lifetime_ns, "--window-lifetimes", window]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter: window-lifetimes x lifetime must be finite and > 0, got {got}\n"


def test_unsupported_regime_exits_2(monkeypatch, capsys):
    def unsupported(params, explicit):
        raise NotSupported("detuned evolution")

    monkeypatch.setitem(cli.HANDLERS, "variance", unsupported)
    assert cli.main(["variance", "--beta", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: unsupported:")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "atomsqueeze.cli", "variance", "--beta", "0.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"variance_x1": 0.1875' in proc.stdout


def test_cli_import_loads_no_scipy():
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, atomsqueeze.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, atomsqueeze.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ------------------------------------------------------------------ size caps

CAPPED = [(command, p) for command, schema in cli.SCHEMAS.items() for p in schema if p.cap is not None]


def _required_values(command: str) -> dict:
    values = {"float": 0.5, "int": 200, "str": "custom"}
    return {p.name: values[p.type.__name__] for p in cli.SCHEMAS[command] if p.required}


def test_every_size_input_has_a_cap_above_its_readme_size():
    readme = {"samples": 100_000, "res": 201, "steps": 200, "n-phases": 16}
    assert len(CAPPED) == 6
    for _, param in CAPPED:
        assert readme[param.name] <= param.cap


@pytest.mark.parametrize("command,param", CAPPED, ids=[f"{c}-{p.name}" for c, p in CAPPED])
def test_size_cap_admits_the_cap_and_rejects_one_more(command, param):
    values = _required_values(command)
    resolved, _ = cli.resolve_params(command, {}, {**values, param.name: param.cap})
    assert resolved[param.name] == param.cap
    with pytest.raises(InvalidParameter, match=f"'{param.name}' is {param.cap + 1}, above its cap"):
        cli.resolve_params(command, {}, {**values, param.name: param.cap + 1})
    values.pop(param.name, None)  # the config file alone sets it
    with pytest.raises(InvalidParameter, match="above its cap"):
        cli.resolve_params(command, {param.name: str(param.cap + 1)}, values)


def test_size_cap_exits_2_before_any_work(monkeypatch, capsys):
    def never(params, explicit):
        raise AssertionError("handler ran past a size cap")

    for command, param in CAPPED:
        monkeypatch.setitem(cli.HANDLERS, command, never)
        argv = [command, *(f"--{k}={v}" for k, v in _required_values(command).items())]
        assert cli.main([*argv, f"--{param.name}", str(param.cap + 1)]) == 2
        assert "above its cap" in capsys.readouterr().err


# 16,000,000 = 1,000,000 x 16 is the bound; 16,000,001 = 24,961 x 641 is one draw above it
_SCAN_AT_BOUND = {"samples": cli.MAX_SAMPLES, "n-phases": 16}
_SCAN_ABOVE_BOUND = {"samples": 24_961, "n-phases": 641}


def test_scan_draw_cap_admits_the_bound_and_rejects_one_more():
    assert cli.MAX_SCAN_DRAWS == 16_000_000 == 24_961 * 641 - 1
    beta = {"beta": 0.5, "seed": 1}
    resolved, _ = cli.resolve_params("phase-scan", {}, {**beta, **_SCAN_AT_BOUND})
    assert resolved["samples"] * resolved["n-phases"] == cli.MAX_SCAN_DRAWS
    message = r"'samples' x 'n-phases' is 24961 x 641 = 16000001 draws, above their cap"
    with pytest.raises(InvalidParameter, match=message):
        cli.resolve_params("phase-scan", {}, {**beta, **_SCAN_ABOVE_BOUND})
    # the config file alone, and the config file with one flag
    config = {k: str(v) for k, v in _SCAN_AT_BOUND.items()}
    resolved, _ = cli.resolve_params("phase-scan", config, beta)
    assert resolved["samples"] * resolved["n-phases"] == cli.MAX_SCAN_DRAWS
    config = {k: str(v) for k, v in _SCAN_ABOVE_BOUND.items()}
    with pytest.raises(InvalidParameter, match=message):
        cli.resolve_params("phase-scan", config, beta)
    with pytest.raises(InvalidParameter, match=message):
        cli.resolve_params("phase-scan", {"n-phases": "641"}, {**beta, "samples": 24_961})


def test_scan_draw_cap_exits_2_before_any_work(monkeypatch, capsys, tmp_path):
    def never(params, explicit):
        raise AssertionError("handler ran past the scan draw cap")

    monkeypatch.setitem(cli.HANDLERS, "phase-scan", never)
    argv = ["phase-scan", "--beta", "0.5", "--seed", "1"]
    flags = [f"--{k}={v}" for k, v in _SCAN_ABOVE_BOUND.items()]
    assert cli.main([*argv, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter:") and "'samples' x 'n-phases'" in err
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _SCAN_ABOVE_BOUND.items()))
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert "above their cap" in capsys.readouterr().err


# ----------------------------------------------------------------- domains

DOMAINS = [(command, p) for command, schema in cli.SCHEMAS.items() for p in schema if p.domain is not None]
_DOMAIN_IDS = [f"{command}-{p.name}" for command, p in DOMAINS]
# float flags that keep the library's check, each pinned by a test above: lo-phase
# by its "phi_lo must be finite", range by a bound that depends on n_max, and
# window-lifetimes by its own guard, since inf (an untruncated LO) is valid there
NO_DOMAIN = {"lo-phase", "range", "window-lifetimes"}


def _outside(param: cli.Param):
    """A value outside param's domain: one below an int flag's least, -inf for a float flag."""
    return param.domain.keywords["least"] - 1 if param.type is int else -math.inf


def test_every_numeric_flag_has_a_domain_but_three():
    undeclared = {p.name for schema in cli.SCHEMAS.values() for p in schema if p.type in (float, int) and p.domain is None}
    assert undeclared == NO_DOMAIN


@pytest.mark.parametrize("source", ["flags", "config"])
def test_a_value_outside_its_domain_exits_2_before_any_work(source, monkeypatch, capsys, tmp_path):
    def never(params, explicit):
        raise AssertionError("handler ran past a flag's domain")

    for command in list(cli.HANDLERS):
        monkeypatch.setitem(cli.HANDLERS, command, never)
    for command, param in DOMAINS:
        values = {**_required_values(command), param.name: _outside(param)}
        if source == "flags":
            argv = [command, *(f"--{k}={v}" for k, v in values.items())]
        else:
            cfg = tmp_path / "domain.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            argv = [command, "--config", str(cfg)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: parameter: {param.name} must be "), captured.err


_SPEC = SuperpositionSpec(0.5, 0.0)
_STATE = fock.to_density(superposition.make_superposition(_SPEC))
_EMITTED = modes.emitted_mode(1.0)
_PREP, _JC = jc.AtomPrep(1.0, 0.0), jc.JCParams(0.0, 0.0, 1.0)
_SOURCE = {
    "beta": ("|beta|", lambda v: SuperpositionSpec(v, 0.0)),
    "phi": ("rel_phase", lambda v: SuperpositionSpec(0.5, v)),
}
_EMITTER = {
    "collection": ("eta_collection", lambda v: modes.detected_squeezing(_SPEC, v, _EMITTED, _EMITTED)),
    "lifetime-ns": ("lifetime", modes.EmitterParams.from_lifetime),
    "beta": _SOURCE["beta"],
    "rel-phase": _SOURCE["phi"],
    "detector": ("eta_detector", lambda v: modes.detected_squeezing(_SPEC, 1.0, _EMITTED, _EMITTED, v)),
}
_WINDOW = ("windows", lambda v: modes.window_tradeoff(_SPEC, 1.0, modes.EmitterParams(1.0), [v]))
# (the library's name for the value, the library call the handler feeds it to)
# for each flag with a domain.  A unit scale (nanoseconds, gamma/2, the
# lifetime) makes a derived product that the handler checks on its own, so
# each call takes the flag's value as it is.
LIBRARY_GUARDS = {
    "variance": _SOURCE,
    "jc-sweep": {
        "theta": ("theta", lambda v: jc.AtomPrep(v, 0.0)),
        "phi": ("phi", lambda v: jc.AtomPrep(1.0, v)),
        "coupling": ("coupling", lambda v: jc.JCParams(0.0, 0.0, v)),
        "omega": ("omega0", lambda v: jc.JCParams(v, v, 1.0)),
        "t-max": ("t_max", lambda v: _transient_rows(_PREP, _JC, v, 2)),
        "steps": ("n_steps", lambda v: _transient_rows(_PREP, _JC, 1.0, v)),
    },
    "wigner": {**_SOURCE, "res": ("resolution", lambda v: wigner.wigner_of_state(_STATE, resolution=v))},
    "homodyne": {
        **_SOURCE,
        "eta": ("eta_total", lambda v: homodyne.HomodyneRun(_STATE, 0.0, v, 100, 0)),
        "samples": ("n_samples", lambda v: homodyne.HomodyneRun(_STATE, 0.0, 1.0, v, 0)),
        "seed": ("seed", lambda v: homodyne.HomodyneRun(_STATE, 0.0, 1.0, 100, v)),
    },
    "phase-scan": {
        **_SOURCE,
        "eta": ("loss transmission eta", lambda v: homodyne.phase_scan(_STATE, v, 100, 0, 4)),
        "samples": ("n_samples", lambda v: homodyne.phase_scan(_STATE, 1.0, v, 0, 4)),
        "n-phases": ("n_phases", lambda v: homodyne.phase_scan(_STATE, 1.0, 100, 0, v)),
        "seed": ("seed", lambda v: homodyne.phase_scan(_STATE, 1.0, 100, v, 4)),
    },
    "budget": {**_EMITTER, "lo-rate-factor": ("amplitude decay rate", modes.exponential_mode)},
    # the handler builds its grid with _linspace and its rows with window_tradeoff's core
    "window-sweep": {**_EMITTER, "min-lifetimes": _WINDOW, "max-lifetimes": _WINDOW,
                     "steps": ("n", lambda v: _linspace(0.5, 10.0, v))},
}


def _probes(param: cli.Param) -> list:
    """least - 1, least and least + 1 for an int flag (its cap is the CLI's alone);
    for a float flag each finite end of its domain and the doubles either side
    of it, 1.0, NaN and +-inf."""
    if param.type is int:
        least = param.domain.keywords["least"]
        return [least - 1, least, least + 1]
    bounds = getattr(param.domain, "keywords", {})
    ends = [float(bounds[k]) for k in ("lo", "hi") if math.isfinite(bounds.get(k, math.inf))]
    edges = [x for end in ends for x in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))]
    return [*edges, 1.0, math.nan, math.inf, -math.inf]


def _cli_rejects(command: str, name: str, value) -> bool:
    try:
        cli.resolve_params(command, {}, {**_required_values(command), name: value})
    except InvalidParameter:
        return True
    return False


def _library_rejects(name: str, call, value) -> bool:
    """Whether the library's guard on `name` rejects value.  Another library
    error (a lifetime whose reciprocal overflows, a mode norm that is NaN) is a
    check on a derived quantity, not that guard's verdict."""
    try:
        call(value)
    except AtomSqueezeError as exc:
        return isinstance(exc, InvalidParameter) and str(exc).startswith(f"{name} must be")
    return False


def test_every_domain_has_a_library_guard_to_agree_with():
    assert {(c, n) for c, guards in LIBRARY_GUARDS.items() for n in guards} == {(c, p.name) for c, p in DOMAINS}


@pytest.mark.parametrize(("command", "param"), DOMAINS, ids=_DOMAIN_IDS)
def test_cli_domain_and_library_guard_agree_at_its_edges(command, param):
    name, call = LIBRARY_GUARDS[command][param.name]
    verdicts = [_cli_rejects(command, param.name, value) for value in _probes(param)]
    assert verdicts == [_library_rejects(name, call, value) for value in _probes(param)], _probes(param)
    assert set(verdicts) == {True, False}


def _json_result(result) -> object:
    """The result that _json_text writes, parsed back with no bare Infinity/NaN allowed."""
    buf = io.StringIO()
    cli._json_text({}, result, buf)
    return json.loads(buf.getvalue(), parse_constant=_reject_constant)["result"]


def test_json_text_cleans_non_finite_floats_at_any_depth():
    doc = {"a": [1.0, math.nan, (math.inf, {"b": [-math.inf]})], "c": 2}
    assert _json_result(doc) == {"a": [1.0, "nan", ["inf", {"b": ["-inf"]}]], "c": 2}


def test_json_text_turns_arrays_into_lists():
    finite = _json_result({"rows": np.array([[0.25, -1.5], [2.0, 3.0]])})
    assert finite == {"rows": [[0.25, -1.5], [2.0, 3.0]]}
    assert type(finite["rows"][0][0]) is float
    assert _json_result(np.array([1.0, -np.inf, np.nan])) == [1.0, "-inf", "nan"]


def test_json_text_writes_a_non_finite_numpy_float_as_csv_does():
    # a numpy scalar reads "nan", as _fmt writes it, not numpy's repr "np.float64(nan)"
    assert _json_result({"x": np.float64("nan"), "y": [np.float64("-inf")]}) == {"x": "nan", "y": ["-inf"]}


def _jsonable_oracle(v):
    """The whole-document copy that _json_text replaced: arrays as lists and
    every non-finite float at any depth as its repr, for json.dumps to format."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, float) and not math.isfinite(v):
        return float.__repr__(v)
    if isinstance(v, dict):
        return {k: _jsonable_oracle(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable_oracle(x) for x in v]
    return v


_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 0.1, 1e300]),
)
_JSON_LEAVES = st.one_of(
    _ANY_FLOAT,
    _ANY_FLOAT.map(np.float64),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),  # the one-write row
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4), elements=_ANY_FLOAT),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "a", "é", "\u2202", "\U0001f600", "/"])),
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.dictionaries(st.text(max_size=4), _JSON_DOCS, max_size=4), _JSON_DOCS)
def test_json_text_matches_the_whole_document_dump_byte_for_byte(meta, result):
    buf = io.StringIO()
    cli._json_text(meta, result, buf)
    oracle = json.dumps(_jsonable_oracle({"meta": meta, "result": result}), indent=2) + "\n"
    assert buf.getvalue() == oracle


# ----------------------------------------------------------------------- fuzz

_FUZZ_FLOATS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 1.0, 1e-300, 1e300]),
)
_FUZZ_INTS = st.one_of(
    st.integers(-3, 40),
    st.integers(100, 200),
    st.sampled_from([p.cap + 1 for _, p in CAPPED] + [10**30]),
)
_FUZZ_STRINGS = st.sampled_from(["custom", "bogus", *modes.EMITTER_PRESETS])


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    argv = [command, "--format", "json"]
    for p in cli.SCHEMAS[command]:
        if not p.required and draw(st.booleans()):
            continue
        if p.type is float:
            value = repr(draw(_FUZZ_FLOATS))
        elif p.type is int:
            value = str(draw(_FUZZ_INTS))
        else:
            value = draw(_FUZZ_STRINGS)
        argv.append(f"--{p.name}={value}")
    return argv


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_fuzz_argv())
def test_cli_fuzz_exits_with_a_documented_code_and_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


def _csv_table(text: str) -> tuple[list[str], list[list[str]]]:
    body = _csv_body(text)
    return body[0].split(","), [line.split(",") for line in body[1:]]


def _assert_csv_cell(column: str, cell: str) -> None:
    if cell in ("true", "false"):
        return
    if column == "preset":
        assert cell == "custom" or cell in modes.EMITTER_PRESETS, cell
    elif column == "lo_window_lifetimes" and cell == "inf":  # an untruncated LO window
        return
    else:
        assert math.isfinite(float(cell)), (column, cell)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_fuzz_argv().map(lambda argv: [argv[0], "--format", "csv", *argv[3:]]))
def test_cli_fuzz_csv_rows_are_full_and_cells_finite(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code != 0:
        assert out.getvalue() == ""
        return
    header, rows = _csv_table(out.getvalue())
    assert rows
    for row in rows:
        assert len(row) == len(header), (argv, row)
        for column, cell in zip(header, row):
            _assert_csv_cell(column, cell)


# a valid size well under each cap, so that only a value at the cap is costly
_SMALL_SIZE = {"samples": 200, "res": 16, "steps": 5, "n-phases": 4}


@st.composite
def _fuzz_config(draw):
    """(command, config text, expected exit code or None when any documented code will do)."""
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    schema = cli.SCHEMAS[command]
    at_cap = draw(st.sampled_from([None, *(p.name for p in schema if p.cap is not None)]))
    entries, above_cap = [], False
    for p in schema:
        if p.cap is not None:
            small = _SMALL_SIZE[p.name]
            value = p.cap if p.name == at_cap else draw(st.sampled_from([small, small, p.cap + 1]))
            above_cap |= value > p.cap
            text = str(value)
        elif not p.required and draw(st.booleans()):
            continue
        elif p.type is float:
            text = repr(draw(_FUZZ_FLOATS))
        elif p.type is int:
            text = str(draw(_FUZZ_INTS))
        else:
            text = draw(_FUZZ_STRINGS)
        entries.append((p.name, text))
    duplicate = bool(entries) and draw(st.integers(0, 3)) == 0
    if duplicate:
        entries.append(draw(st.sampled_from(entries)))
    lines = [
        f"{draw(st.sampled_from([name, name.replace('-', '_')]))} = {text}"
        for name, text in draw(st.permutations(entries))
    ]
    return command, "\n".join(lines) + "\n", 2 if duplicate or above_cap else None


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=_fuzz_config(), fmt=st.sampled_from(["json", "csv"]))
def test_cli_fuzz_config_files_exit_with_a_documented_code(case, fmt, tmp_path_factory):
    command, text, expected = case
    cfg = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(cfg), "--format", fmt])
    assert code in (0, 2, 3, 4), (command, text, code, err.getvalue())
    if expected is not None:
        assert code == expected, (command, text, err.getvalue())
    if code != 0:
        assert out.getvalue() == ""


# ----------------------------------------------------------- JSON and CSV agree

TABLE_CASES = [
    ["jc-sweep", "--theta", "2.0944", "--phi", "1.5708", "--t-max", "6.2832", "--steps", "50"],
    ["phase-scan", "--beta", "0.5", "--phi", "1.5708", "--samples", "300", "--n-phases", "8", "--seed", "5"],
    ["window-sweep", "--collection", "0.94", "--min-lifetimes", "0.5", "--max-lifetimes", "10", "--steps", "20"],
]


@pytest.mark.parametrize("argv", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_csv_rows_equal_json_rows(argv, tmp_path):
    doc = json.loads(_run_to_text([*argv, "--format", "json"], tmp_path, "t.json"))["result"]
    header, rows = _csv_table(_run_to_text([*argv, "--format", "csv"], tmp_path, "t.csv"))
    assert header == doc["columns"]
    assert [[float(cell) for cell in row] for row in rows] == doc["rows"]


def test_wigner_csv_is_the_json_grid_row_major(tmp_path):
    argv = ["wigner", "--beta", "0.57735", "--phi", "0.3", "--res", "23"]
    doc = json.loads(_run_to_text([*argv, "--format", "json"], tmp_path, "w.json"))["result"]
    header, rows = _csv_table(_run_to_text([*argv, "--format", "csv"], tmp_path, "w.csv"))
    assert header == ["x1", "x2", "w"]
    expected = [
        [x1, x2, w]
        for x1, values in zip(doc["x1"], doc["values"])
        for x2, w in zip(doc["x2"], values)
    ]
    assert [[float(cell) for cell in row] for row in rows] == expected


def test_homodyne_csv_samples_reproduce_json_estimates(tmp_path):
    argv = ["homodyne", "--beta", "0.5", "--phi", "0.7", "--samples", "5000", "--seed", "17"]
    res = json.loads(_run_to_text([*argv, "--format", "json"], tmp_path, "h.json"))["result"]
    header, rows = _csv_table(_run_to_text([*argv, "--format", "csv"], tmp_path, "h.csv"))
    assert header == ["sample"]
    est = homodyne.estimate_variance(np.array([float(row[0]) for row in rows]))
    assert est.n == res["n"] == 5000
    assert est.mean_hat == res["mean_hat"]  # repr round-trips every sample exactly
    assert est.var_hat == res["var_hat"]


# ------------------------------------------------------------ streamed writer

def _fmt_reference(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv_reference(meta: dict, columns: dict) -> str:
    """The CSV document built whole and written once, cell by cell."""
    lines = []
    for key, val in meta.items():
        if key == "parameters":
            body = " ".join(f"{k}={_fmt_reference(v)}" for k, v in val.items())
            lines.append(f"# parameters: {body}")
        else:
            lines.append(f"# {key}: {_fmt_reference(val)}")
    lines.append(",".join(columns))
    cells = (col if isinstance(col, list) else map(_fmt_reference, col.tolist()) for col in columns.values())
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _record_meta(monkeypatch) -> list:
    """Patch cli._meta to keep each (meta, CommandOutput) that a run writes."""
    seen, real = [], cli._meta

    def record(command, params, out):
        meta = real(command, params, out)
        seen.append((meta, out))
        return meta

    monkeypatch.setattr(cli, "_meta", record)
    return seen


def _mixed_columns(n: int) -> dict:
    rng = np.random.default_rng(n)
    scale = 10.0 ** rng.integers(-300, 300, size=n)
    return {
        "t": np.concatenate([[-0.0, 0.1, 1e16, 5e-324], rng.normal(size=n) * scale])[:n],
        "k": [str(k) for k in rng.integers(-10**15, 10**15, size=n).tolist()],
        "ok": ["true" if ok else "false" for ok in (rng.random(n) < 0.5).tolist()],
        "label": (["a", "bc", "def"] * n)[:n],
        "text": [repr(x) for x in rng.normal(size=n)],
    }


_ROW_COUNTS = [1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("n_rows", _ROW_COUNTS)
def test_streamed_csv_equals_the_one_shot_reference(n_rows, to_file, monkeypatch, capsys, tmp_path):
    columns = _mixed_columns(n_rows)
    monkeypatch.setitem(cli.HANDLERS, "jc-sweep", lambda params, explicit: cli.CommandOutput(1, {}, columns))
    seen = _record_meta(monkeypatch)
    argv = ["jc-sweep", "--theta", "1.0", "--t-max", "1.0"]
    if to_file:
        text = _run_to_text(argv, tmp_path, "t.csv")
    else:
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
    [(meta, _)] = seen
    assert text == _csv_reference(meta, columns)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv", [
    ["homodyne", "--beta", "0.5", "--samples", str(cli._CHUNK_ROWS + 1), "--seed", "3", "--format", "csv"],
    ["jc-sweep", "--theta", "2.0944", "--t-max", "6.2832", "--steps", str(cli._CHUNK_ROWS + 1)],
], ids=["homodyne", "jc-sweep"])
def test_streamed_command_csv_equals_the_one_shot_reference(argv, to_file, monkeypatch, capsys, tmp_path):
    seen = _record_meta(monkeypatch)
    if to_file:
        text = _run_to_text(argv, tmp_path, "c.csv")
    else:
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
    [(meta, out)] = seen
    assert text == _csv_reference(meta, out.columns)


def test_wigner_csv_axes_formatted_once_equal_the_float_reference(monkeypatch, capsys):
    seen = _record_meta(monkeypatch)
    assert cli.main(["wigner", "--beta", "0.57735", "--phi", "0.3", "--res", "129"]) == 0
    [(meta, out)] = seen
    x1, x2, values = out.result["x1"], out.result["x2"], out.result["values"]
    assert x1.size * x2.size > cli._CHUNK_ROWS
    floats = {"x1": np.repeat(x1, x2.size), "x2": np.tile(x2, x1.size), "w": values.ravel()}
    assert capsys.readouterr().out == _csv_reference(meta, floats)


class _FailingSink:
    """A stdout whose n-th write fails, as on a full disk."""

    def __init__(self, failing_write: int):
        self.failing_write = failing_write
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self.failing_write:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(text)


@pytest.mark.parametrize(("fmt", "failing_write"), [("csv", 2), ("json", 1), ("json", 3)])
def test_a_failing_write_exits_4(fmt, failing_write, monkeypatch, capsys):
    # CSV writes its header, then the rows: the second write fails midway.
    # JSON is written block by block: the third write fails inside the header.
    sink = _FailingSink(failing_write)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["wigner", "--beta", "0.5", "--res", "16", "--format", fmt]) == 4
    assert sink.writes == failing_write
    err = capsys.readouterr().err
    assert err.startswith("error: io:")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_to_a_full_device_exits_4(fmt):
    proc = subprocess.run(
        [sys.executable, "-m", "atomsqueeze.cli", "wigner", "--beta", "0.5", "--format", fmt, "--out", "/dev/full"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: io:")
    assert proc.stderr.count("\n") == 1  # no traceback, no ignored exception at exit


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_homodyne_csv_at_the_sample_cap_streams_in_bounded_memory():
    # VmHWM is the peak RSS of the child's own address space; its ru_maxrss
    # would start at the peak of the (large) test process that spawned it
    child = (
        "import re, sys\n"
        "from atomsqueeze import cli\n"
        "code = cli.main(['homodyne', '--beta', '0.5', '--samples', '1000000', '--seed', '3', '--format', 'csv'])\n"
        "sys.stdout.flush()\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    code, peak_kib = map(int, proc.stderr.split())
    assert code == 0
    assert peak_kib < 100 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wigner_at_the_resolution_cap_streams_in_bounded_memory(fmt):
    # both formats write the 1,001^2 grid block by block: near 145 MiB each,
    # where a JSON document built whole peaked near 227 MiB
    child = (
        "import re, sys\n"
        "from atomsqueeze import cli\n"
        f"code = cli.main(['wigner', '--beta', '0.5', '--res', '1001', '--format', '{fmt}'])\n"
        "sys.stdout.flush()\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    code, peak_kib = map(int, proc.stderr.split())
    assert code == 0
    assert peak_kib < 190 * 1024
