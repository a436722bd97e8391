"""Command line front end.

Every subcommand takes its parameters from three layers: built-in defaults,
then an optional `--config FILE` of `key = value` lines (# comments), then
explicit flags, later layers winning.  Outputs carry a provenance header
(artifact, version, command, resolved parameters, truncation, seed and
generator for stochastic runs, timestamp) and are byte-identical across
repeated runs of the same invocation once the timestamp line is stripped.

Exit codes: 0 success, 2 parameter/usage error, 3 numeric or physical
failure, 4 I/O failure.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, fock, homodyne, jaynes_cummings, modes, superposition, wigner
from .errors import DegenerateData, InvalidParameter, InvalidState, NotSupported

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_REQUIRED = object()

# Caps on the inputs that size memory; larger values exit 2.  Results are held
# as numpy arrays, but the output text is built whole before it is written
# (~100 bytes per CSV cell at the peak), so each cap keeps a run within a few
# hundred MiB.  A phase scan draws samples x n-phases values, so that product
# has its own cap: either input at its cap with the other at its default
# passes, both at their caps (4.1e9 draws, minutes of work) do not.
MAX_SAMPLES = 1_000_000
MAX_RES = 1001
MAX_STEPS = 100_000
MAX_PHASES = 4096
MAX_SCAN_DRAWS = 16 * MAX_SAMPLES


@dataclass(frozen=True)
class Param:
    """One tunable of a subcommand; `name` is both the flag and the config key."""

    name: str
    type: type
    default: object = _REQUIRED
    help: str = ""
    cap: int | None = None  # largest accepted value of a size input

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


_BETA = Param("beta", float, help="one-photon amplitude |beta| of the source state")
_PHI = Param("phi", float, 0.0, help="relative phase of the one-photon amplitude")
_SEED = Param("seed", int, help="RNG seed (required for stochastic commands)")
_BUDGET_SOURCE = (
    Param("collection", float, help="collection efficiency into the LO spatial mode"),
    Param("preset", str, "custom", help="emitter preset name, or 'custom'"),
    Param("lifetime-ns", float, 230.0, help="emitter lifetime in nanoseconds"),
    Param("beta", float, 0.5, help="one-photon amplitude of the source"),
    Param("rel-phase", float, 0.0, help="relative phase of the source"),
    Param("detector", float, 1.0, help="detector quantum efficiency"),
)

SCHEMAS: dict[str, list[Param]] = {
    "variance": [
        Param("beta", float, help="one-photon amplitude |beta|"),
        _PHI,
    ],
    "jc-sweep": [
        Param("theta", float, help="atom preparation polar angle"),
        Param("phi", float, 0.0, help="atom preparation azimuthal phase"),
        Param("coupling", float, 1.0, help="atom-field coupling rate"),
        Param("omega", float, 0.0, help="resonant angular frequency (0 = rotating frame)"),
        Param("t-max", float, help="sweep end time"),
        Param("steps", int, 200, help="number of grid points", cap=MAX_STEPS),
    ],
    "wigner": [
        _BETA,
        _PHI,
        Param("range", float, 4.0, help="half-width R of the [-R, R]^2 grid"),
        Param("res", int, 201, help="points per axis", cap=MAX_RES),
    ],
    "homodyne": [
        _BETA,
        _PHI,
        Param("lo-phase", float, 0.0, help="local oscillator phase"),
        Param("eta", float, 1.0, help="total detection efficiency"),
        Param("samples", int, help="number of Monte Carlo samples", cap=MAX_SAMPLES),
        _SEED,
    ],
    "phase-scan": [
        _BETA,
        _PHI,
        Param("eta", float, 1.0, help="total detection efficiency"),
        Param("samples", int, 2000, help="samples per phase", cap=MAX_SAMPLES),
        Param("n-phases", int, 16, help="number of LO phases on [0, 2*pi)", cap=MAX_PHASES),
        _SEED,
    ],
    "budget": [
        *_BUDGET_SOURCE,
        Param("lo-rate-factor", float, 1.0, help="LO amplitude decay rate in units of gamma/2"),
        Param("window-lifetimes", float, math.inf, help="LO window in lifetimes (inf = untruncated)"),
    ],
    "window-sweep": [
        *_BUDGET_SOURCE,
        Param("min-lifetimes", float, 0.5, help="shortest LO window in lifetimes"),
        Param("max-lifetimes", float, 10.0, help="longest LO window in lifetimes"),
        Param("steps", int, 20, help="number of windows", cap=MAX_STEPS),
    ],
}

STOCHASTIC = {command for command, schema in SCHEMAS.items() if _SEED in schema}
DEFAULT_FORMAT = {
    "variance": "json",
    "jc-sweep": "csv",
    "wigner": "csv",
    "homodyne": "json",
    "phase-scan": "csv",
    "budget": "json",
    "window-sweep": "csv",
}


@dataclass
class CommandOutput:
    """A handler's output.  Arrays in `result` become JSON lists only when JSON
    is written.  `columns` are the CSV table, named 1-D arrays; when it is
    None the CSV body is the one-row table of the scalar results."""

    n_max: int
    result: dict
    columns: dict[str, np.ndarray] | None = None
    extra_meta: dict = field(default_factory=dict)


def parse_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; # starts a comment; duplicate keys are errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"config file {path!r} is not UTF-8: bad byte at offset {exc.start}") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameter(f"config line {ln}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if not key or not val:
            raise InvalidParameter(f"config line {ln}: empty key or value")
        if key in out:
            raise InvalidParameter(f"config line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


def _convert(param: Param, raw: str):
    try:
        return param.type(raw)
    except ValueError:
        raise InvalidParameter(
            f"could not parse config value {raw!r} for key {param.name!r} as {param.type.__name__}"
        ) from None


def resolve_params(command: str, config_values: dict[str, str], cli_values: dict) -> tuple[dict, set]:
    """Merge defaults < config file < flags; returns (values, explicitly-set names)."""
    schema = SCHEMAS[command]
    known = {p.name for p in schema}
    for key in config_values:
        if key not in known:
            raise InvalidParameter(f"unknown config key {key!r} for command {command!r}")
    resolved, explicit = {}, set()
    for p in schema:
        if cli_values.get(p.name) is not None:
            value = cli_values[p.name]
        elif p.name in config_values:
            value = _convert(p, config_values[p.name])
        elif p.required:
            raise InvalidParameter(f"missing required parameter {p.name!r} for command {command!r}")
        else:
            resolved[p.name] = p.default
            continue
        # inf stays valid: window-lifetimes = inf means an untruncated LO
        if isinstance(value, float) and math.isnan(value):
            raise InvalidParameter(f"parameter {p.name!r} is NaN")
        if p.cap is not None and value > p.cap:
            raise InvalidParameter(f"parameter {p.name!r} is {value!r}, above its cap of {p.cap}")
        resolved[p.name] = value
        explicit.add(p.name)
    if {"samples", "n-phases"} <= resolved.keys():
        draws = resolved["samples"] * resolved["n-phases"]
        if draws > MAX_SCAN_DRAWS:
            raise InvalidParameter(
                f"'samples' x 'n-phases' is {resolved['samples']!r} x {resolved['n-phases']!r}"
                f" = {draws!r} draws, above their cap of {MAX_SCAN_DRAWS}"
            )
    return resolved, explicit


def _fmt(v) -> str:
    if isinstance(v, float):  # first: bool is no float, so a float cell takes one test
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _jsonable(v):
    """v as JSON values, every non-finite float at any depth replaced by its repr."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _meta(command: str, params: dict, out: CommandOutput) -> dict:
    meta = {
        "artifact": "atomsqueeze",
        "version": __version__,
        "command": command,
        "parameters": {p.name: params[p.name] for p in SCHEMAS[command]},
        "n_max": out.n_max,
    }
    if command in STOCHASTIC:
        meta["seed"] = params["seed"]
        meta["rng"] = homodyne.GENERATOR_ID
    meta.update(out.extra_meta)
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _json_text(meta: dict, result: dict) -> str:
    # keep the document strict JSON: no bare Infinity/NaN tokens
    return json.dumps(_jsonable({"meta": meta, "result": result}), indent=2) + "\n"

def _csv_text(meta: dict, columns: dict[str, np.ndarray]) -> str:
    lines = []
    for key, val in meta.items():
        if key == "parameters":
            body = " ".join(f"{k}={_fmt(v)}" for k, v in val.items())
            lines.append(f"# parameters: {body}")
        else:
            lines.append(f"# {key}: {_fmt(val)}")
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*(map(_fmt, col.tolist()) for col in columns.values()))))
    return "\n".join(lines) + "\n"


def _scalar_table(result: dict) -> dict[str, np.ndarray]:
    return {k: np.array([v]) for k, v in result.items() if isinstance(v, (int, float, bool, str))}


def _source_spec(params: dict, phase_key: str = "phi") -> superposition.SuperpositionSpec:
    return superposition.SuperpositionSpec(beta_abs=params["beta"], rel_phase=params[phase_key])


def _table(n_max: int, header: list, rows) -> CommandOutput:
    """Output whose JSON result and CSV body are the same float rows."""
    rows = np.asarray(rows, float)
    return CommandOutput(
        n_max=n_max,
        result={"columns": header, "rows": rows},
        columns=dict(zip(header, rows.T)),
    )


def _emitter(params: dict, explicit: set) -> modes.EmitterParams:
    if params["preset"] != "custom":
        if "lifetime-ns" in explicit:
            raise InvalidParameter("give either a preset or an explicit lifetime, not both")
        return modes.EmitterParams.from_preset(params["preset"])
    return modes.EmitterParams.from_lifetime(params["lifetime-ns"] * 1e-9)


def _run_variance(params: dict, explicit: set) -> CommandOutput:
    spec = _source_spec(params)
    v1, v2 = superposition.quadrature_variances(spec)
    vmin = superposition.min_variance(spec)
    result = {
        "variance_x1": v1,
        "db_x1": fock.variance_to_db(v1),
        "variance_x2": v2,
        "db_x2": fock.variance_to_db(v2),
        "min_variance": vmin,
        "min_db": fock.variance_to_db(vmin),
        "squeezed": superposition.squeezing_region(spec),
    }
    return CommandOutput(n_max=1, result=result)


def _run_jc_sweep(params: dict, explicit: set) -> CommandOutput:
    prep = jaynes_cummings.AtomPrep(theta=params["theta"], phi=params["phi"])
    jc = jaynes_cummings.JCParams(
        omega0=params["omega"], omega=params["omega"], coupling=params["coupling"]
    )
    rows = jaynes_cummings.transient_sweep(prep, jc, params["t-max"], params["steps"])
    return _table(1, ["t", "variance_x1", "variance_x2", "db_x1", "db_x2"], rows)


def _run_wigner(params: dict, explicit: set) -> CommandOutput:
    spec = _source_spec(params)
    rho = fock.to_density(superposition.make_superposition(spec))
    half = params["range"]
    grid = wigner.wigner_of_state(rho, (-half, half), (-half, half), params["res"])
    result = {
        "x1_range": [-half, half],
        "x2_range": [-half, half],
        "resolution": params["res"],
        "convention": "vacuum-variance=1/4",
        "x1": grid.x1,
        "x2": grid.x2,
        "values": grid.values,
        "integral": grid.integral,
    }
    return CommandOutput(
        n_max=1,
        result=result,
        columns={  # row-major: x1 outer, x2 inner
            "x1": np.repeat(grid.x1, grid.x2.size),
            "x2": np.tile(grid.x2, grid.x1.size),
            "w": grid.values.ravel(),
        },
        extra_meta={"convention": "vacuum-variance=1/4", "integral": grid.integral},
    )


def _run_homodyne(params: dict, explicit: set) -> CommandOutput:
    spec = _source_spec(params)
    rho = fock.to_density(superposition.make_superposition(spec))
    run = homodyne.HomodyneRun(
        state=rho,
        phi_lo=params["lo-phase"],
        eta_total=params["eta"],
        n_samples=params["samples"],
        seed=params["seed"],
    )
    samples = homodyne.sample_quadratures(run)
    est = homodyne.estimate_variance(samples)
    exact = fock.quadrature_stats(homodyne.detected_state(rho, run.eta_total), run.phi_lo)
    result = {
        "n": est.n,
        "mean_hat": est.mean_hat,
        "var_hat": est.var_hat,
        "db_hat": fock.variance_to_db(est.var_hat),
        "std_error_of_var": est.std_error_of_var,
        "std_error_normal_theory": est.std_error_normal_theory,
        "exact_variance": exact.variance,
        "exact_db": fock.variance_to_db(exact.variance),
    }
    return CommandOutput(n_max=rho.n_max, result=result, columns={"sample": samples})


def _run_phase_scan(params: dict, explicit: set) -> CommandOutput:
    spec = _source_spec(params)
    rho = fock.to_density(superposition.make_superposition(spec))
    rows = homodyne.phase_scan(
        rho, params["eta"], params["samples"], params["seed"], params["n-phases"]
    )
    header = ["phi_lo", "var_hat", "db_hat", "std_error", "var_exact", "db_exact"]
    return _table(rho.n_max, header, rows)


def _run_budget(params: dict, explicit: set) -> CommandOutput:
    emitter = _emitter(params, explicit)
    spec = _source_spec(params, "rel-phase")
    window = params["window-lifetimes"]
    if window != math.inf and window <= 0.0:
        raise InvalidParameter(f"window-lifetimes must be > 0, got {window!r}")
    lo = modes.exponential_mode(
        params["lo-rate-factor"] * emitter.gamma_rate / 2.0,
        window * emitter.lifetime_tau if math.isfinite(window) else math.inf,
    )
    budget = modes.detected_squeezing(
        spec,
        params["collection"],
        modes.emitted_mode(emitter.gamma_rate),
        lo,
        params["detector"],
        preset=params["preset"],
    )
    result = {
        "preset": budget.preset,
        "lifetime_s": emitter.lifetime_tau,
        "gamma_rate": emitter.gamma_rate,
        "linewidth_hz": emitter.linewidth_hz,
        "lo_rate_factor": params["lo-rate-factor"],
        "lo_window_lifetimes": window,
        "eta_collection": budget.eta_collection,
        "eta_overlap": budget.eta_overlap,
        "eta_detector": budget.eta_detector,
        "eta_total": budget.eta_total,
        "input_variance": budget.input_variance,
        "input_db": fock.variance_to_db(budget.input_variance),
        "detected_variance": budget.detected_variance,
        "detected_db": budget.detected_db,
    }
    return CommandOutput(n_max=1, result=result)


def _run_window_sweep(params: dict, explicit: set) -> CommandOutput:
    emitter = _emitter(params, explicit)
    spec = _source_spec(params, "rel-phase")
    if params["steps"] < 2:
        raise InvalidParameter(f"steps must be >= 2, got {params['steps']!r}")
    grid = np.linspace(params["min-lifetimes"], params["max-lifetimes"], params["steps"])
    rows = modes.window_tradeoff(
        spec, params["collection"], emitter, grid * emitter.lifetime_tau, params["detector"]
    )
    header = ["window_s", "window_lifetimes", "eta_overlap", "detected_db"]
    return _table(1, header, np.insert(rows, 1, rows[:, 0] / emitter.lifetime_tau, axis=1))


HANDLERS = {
    "variance": _run_variance,
    "jc-sweep": _run_jc_sweep,
    "wigner": _run_wigner,
    "homodyne": _run_homodyne,
    "phase-scan": _run_phase_scan,
    "budget": _run_budget,
    "window-sweep": _run_window_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomsqueeze",
        description="Quadrature squeezing of single-atom emission: variances, "
        "phase space, homodyne Monte Carlo, and detection budgets.",
    )
    parser.add_argument("--version", action="version", version=f"atomsqueeze {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        for prm in schema:
            cap = "" if prm.cap is None else f" (at most {prm.cap:,})"
            p.add_argument(f"--{prm.name}", type=prm.type, default=None, help=prm.help + cap)
        p.add_argument("--config", default=None, help="key = value parameter file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default=DEFAULT_FORMAT[command],
            dest="fmt",
        )
    return parser


def run(args: argparse.Namespace) -> int:
    command = args.command
    config_values = parse_config_file(args.config) if args.config else {}
    cli_values = {
        p.name: getattr(args, p.name.replace("-", "_")) for p in SCHEMAS[command]
    }
    params, explicit = resolve_params(command, config_values, cli_values)
    out = HANDLERS[command](params, explicit)
    meta = _meta(command, params, out)
    if args.fmt == "json":
        text = _json_text(meta, out.result)
    else:
        text = _csv_text(meta, out.columns if out.columns is not None else _scalar_table(out.result))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code if exc.code is not None else 0
        return EXIT_PARAMETER if code not in (0,) else 0
    try:
        return run(args)
    except InvalidParameter as exc:
        print(f"error: parameter: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except NotSupported as exc:
        print(f"error: unsupported: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (InvalidState, DegenerateData) as exc:
        kind = "state" if isinstance(exc, InvalidState) else "data"
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
