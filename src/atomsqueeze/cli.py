"""Command line front end.

Every subcommand takes its parameters from three layers: built-in defaults,
then an optional `--config FILE` of `key = value` lines (# comments), then
explicit flags, later layers winning.  Outputs carry a provenance header
(artifact, version, command, resolved parameters, truncation, seed and
generator for stochastic runs, timestamp) and are byte-identical across
repeated runs of the same invocation once the timestamp line is stripped.

Exit codes: 0 success, 2 parameter/usage error, 3 numeric or physical
failure, 4 I/O failure.

Each handler imports the modules it computes with when it runs, so a
command loads only what it uses: `variance`, `budget`, `jc-sweep` and
`window-sweep` run without numpy in either format.  A CSV column is float
values (a numpy array, or the array.array("d") of a sweep's plain float
rows) or a list of its cells' text.
"""

import argparse
import contextlib
import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

from . import __version__
from .closed_forms import AtomPrep, JCParams, SuperpositionSpec, _linspace, _transient_rows
from .closed_forms import min_variance, quadrature_variances, squeezing_region, variance_to_db
from .errors import DegenerateData, InvalidParameter, InvalidState, NotSupported
from .errors import _interval, require_finite, require_in, require_int

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_REQUIRED = object()

# Caps on the inputs that size memory; larger values exit 2.  Results are held
# as numpy arrays or float rows, and both formats write their text as they
# format it: CSV in blocks of _CHUNK_ROWS rows, JSON a block (one row of floats)
# at a time.  So the caps bound the arrays and the run time, and a 1,001^2
# Wigner grid peaks near 145 MiB in either format.  A phase scan draws
# samples x n-phases values, so that product has its own cap: either input at
# its cap with the other at its default passes, both at their caps (4.1e9
# draws, minutes of work) do not.
MAX_SAMPLES = 1_000_000
MAX_RES = 1001
MAX_STEPS = 100_000
MAX_PHASES = 4096
MAX_SCAN_DRAWS = 16 * MAX_SAMPLES
_CHUNK_ROWS = 16_384  # CSV rows per write


@dataclass(frozen=True)
class Param:
    """One tunable of a subcommand; `name` is both the flag and the config key.

    `domain` is an errors guard, called as domain(name, value) on each value a
    flag or the config file sets, so that a value outside it exits 2 under the
    flag's name before any handler runs.
    """

    name: str
    type: type
    default: object = _REQUIRED
    help: str = ""
    cap: int | None = None  # largest accepted value of a size input
    domain: "Callable | None" = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


# the domains, each the library's guard on the value the handler feeds it
_UNIT = partial(require_in, lo=0, hi=1)  # an efficiency or |beta|
_POSITIVE = partial(require_in, lo=0, open_lo=True)  # finite and > 0
_ANGLE = partial(require_in, lo=0, hi=math.tau, open_hi=True)  # [0, 2 pi)


def _least(least: int) -> partial:
    return partial(require_int, least=least)


def _domain_words(domain) -> str:
    """A domain in the words its guard's message uses, from the guard's bound arguments."""
    if domain is require_finite:
        return "finite"
    if domain.func is require_in:
        return _interval(**domain.keywords)
    return f"an integer >= {domain.keywords['least']}"


_BETA = Param("beta", float, help="one-photon amplitude |beta| of the source state", domain=_UNIT)
_PHI = Param("phi", float, 0.0, help="relative phase of the one-photon amplitude", domain=require_finite)
_ETA = Param("eta", float, 1.0, help="total detection efficiency", domain=_UNIT)
_SEED = Param("seed", int, help="RNG seed (required for stochastic commands)", domain=_least(0))
_BUDGET_SOURCE = (
    Param("collection", float, help="collection efficiency into the LO spatial mode", domain=_UNIT),
    Param("preset", str, "custom", help="emitter preset name, or 'custom'"),
    Param("lifetime-ns", float, 230.0, help="emitter lifetime in nanoseconds", domain=_POSITIVE),
    Param("beta", float, 0.5, help="one-photon amplitude of the source", domain=_UNIT),
    Param("rel-phase", float, 0.0, help="relative phase of the source", domain=require_finite),
    Param("detector", float, 1.0, help="detector quantum efficiency", domain=_UNIT),
)

SCHEMAS: dict[str, list[Param]] = {
    "variance": [_BETA, _PHI],
    "jc-sweep": [
        Param("theta", float, help="atom preparation polar angle", domain=_ANGLE),
        Param("phi", float, 0.0, help="atom preparation azimuthal phase", domain=_ANGLE),
        Param("coupling", float, 1.0, help="atom-field coupling rate", domain=_POSITIVE),
        Param("omega", float, 0.0, help="atom and field angular frequency, echoed in the header only:"
              " the rows are quoted in the frame rotating at it", domain=partial(require_in, lo=0)),
        Param("t-max", float, help="sweep end time", domain=_POSITIVE),
        Param("steps", int, 200, help="number of grid points", cap=MAX_STEPS, domain=_least(2)),
    ],
    "wigner": [
        _BETA,
        _PHI,
        Param("range", float, 4.0, help="half-width R of the [-R, R]^2 grid"),
        Param("res", int, 201, help="points per axis", cap=MAX_RES, domain=_least(16)),
    ],
    "homodyne": [
        _BETA,
        _PHI,
        Param("lo-phase", float, 0.0, help="local oscillator phase"),
        _ETA,
        Param("samples", int, help="number of Monte Carlo samples", cap=MAX_SAMPLES, domain=_least(100)),
        _SEED,
    ],
    "phase-scan": [
        _BETA,
        _PHI,
        _ETA,
        Param("samples", int, 2000, help="samples per phase", cap=MAX_SAMPLES, domain=_least(100)),
        Param("n-phases", int, 16, help="number of LO phases on [0, 2*pi)", cap=MAX_PHASES, domain=_least(4)),
        _SEED,
    ],
    "budget": [
        *_BUDGET_SOURCE,
        Param("lo-rate-factor", float, 1.0, help="LO amplitude decay rate in units of gamma/2", domain=_POSITIVE),
        Param("window-lifetimes", float, math.inf, help="LO window in lifetimes (inf = untruncated)"),
    ],
    "window-sweep": [
        *_BUDGET_SOURCE,
        Param("min-lifetimes", float, 0.5, help="shortest LO window in lifetimes", domain=_POSITIVE),
        Param("max-lifetimes", float, 10.0, help="longest LO window in lifetimes", domain=_POSITIVE),
        Param("steps", int, 20, help="number of windows", cap=MAX_STEPS, domain=_least(2)),
    ],
}

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
    """A handler's output.  Arrays and row tuples in `result` become JSON
    lists only when JSON is written.  `columns` are the CSV table, named
    columns that are either 1-D float values (a numpy array or an
    array.array("d")) or a list of cell text; when it is None the CSV body
    is the one-row table of the scalar results.  `extra_meta` holds the
    command's own header fields, written after n_max: a stochastic run's seed
    and generator, or a grid's convention and integral."""

    n_max: int
    result: dict
    columns: dict[str, "np.ndarray | array | list[str]"] | None = None
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
        if p.domain is not None:
            p.domain(p.name, value)
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
    """A scalar as CSV text: a bool as true/false, a float by float.__repr__, anything else by str."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return float.__repr__(v) if isinstance(v, float) else str(v)


def _meta(command: str, params: dict, out: CommandOutput) -> dict:
    return {
        "artifact": "atomsqueeze",
        "version": __version__,
        "command": command,
        "parameters": {p.name: params[p.name] for p in SCHEMAS[command]},
        "n_max": out.n_max,
        **out.extra_meta,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _cells(col: "np.ndarray | array | list[str]"):
    """The text of a 1-D column: a list holds it already, and floats are written by float.__repr__."""
    return col if isinstance(col, list) else map(float.__repr__, col.tolist())


def _json_text(meta: dict, result: dict, fh) -> None:
    """Write the JSON document in json.dumps(indent=2)'s layout, each block as
    it is formatted: an array as its list, and each non-finite float as the
    float.__repr__ string that _fmt writes to CSV, so the document stays strict
    JSON.  This and _csv_text format and write, so the cli.serialize span that
    bench/tracing.py wraps them in by name covers both."""
    # a result holds arrays only if numpy is loaded; otherwise isinstance(v, ()) is always False
    arrays = getattr(sys.modules.get("numpy"), "ndarray", ())

    def write(head: str, v, pad: str):
        """Write head, then v, whose inner lines are indented by pad and two spaces."""
        if isinstance(v, arrays):
            v = v.tolist()
        if isinstance(v, float) and not math.isfinite(v):
            v = float.__repr__(v)
        if not (isinstance(v, (dict, list, tuple)) and v):
            return fh.write(head + json.dumps(v))
        inner, (opening, closing) = pad + "  ", "{}" if isinstance(v, dict) else "[]"
        head, sep, tail = head + opening + "\n" + inner, ",\n" + inner, "\n" + pad + closing
        if all(type(x) is float and math.isfinite(x) for x in v):  # a row of floats is one write
            return fh.write(head + sep.join(map(float.__repr__, v)) + tail)
        for x in v:
            if isinstance(v, dict):  # x is a key: write it, then its value
                head, x = head + json.dumps(x) + ": ", v[x]
            write(head, x, inner)
            head = sep
        fh.write(tail)

    write("", {"meta": meta, "result": result}, "")
    fh.write("\n")


def _csv_text(meta: dict, columns: dict[str, "np.ndarray | array | list[str]"], fh) -> None:
    """Write the commented header, then the table in blocks of _CHUNK_ROWS rows."""
    lines = []
    for key, val in meta.items():
        if key == "parameters":
            body = " ".join(f"{k}={_fmt(v)}" for k, v in val.items())
            lines.append(f"# parameters: {body}")
        else:
            lines.append(f"# {key}: {_fmt(val)}")
    lines.append(",".join(columns))
    fh.write("\n".join(lines) + "\n")
    cols = list(columns.values())
    for start in range(0, len(cols[0]), _CHUNK_ROWS):
        rows = zip(*(_cells(col[start:start + _CHUNK_ROWS]) for col in cols))
        fh.write("\n".join(map(",".join, rows)) + "\n")


def _source_spec(params: dict, phase_key: str = "phi") -> SuperpositionSpec:
    return SuperpositionSpec(beta_abs=params["beta"], rel_phase=params[phase_key])


def _table(n_max: int, header: list, rows: list, **extra_meta) -> CommandOutput:
    """Output whose JSON result and CSV body are the same plain float rows."""
    return CommandOutput(
        n_max=n_max,
        result={"columns": header, "rows": rows},
        columns={name: array("d", col) for name, col in zip(header, zip(*rows))},
        extra_meta=extra_meta,
    )


def _emitter(params: dict, explicit: set) -> "modes.EmitterParams":
    from . import modes

    if params["preset"] != "custom":
        if "lifetime-ns" in explicit:
            raise InvalidParameter("give either a preset or an explicit lifetime, not both")
        return modes.EmitterParams.from_preset(params["preset"])
    return modes.EmitterParams.from_lifetime(params["lifetime-ns"] * 1e-9)


def _run_variance(params: dict, explicit: set) -> CommandOutput:
    spec = _source_spec(params)
    v1, v2 = quadrature_variances(spec)
    vmin = min_variance(spec)
    result = {
        "variance_x1": v1,
        "db_x1": variance_to_db(v1),
        "variance_x2": v2,
        "db_x2": variance_to_db(v2),
        "min_variance": vmin,
        "min_db": variance_to_db(vmin),
        "squeezed": squeezing_region(spec),
    }
    return CommandOutput(n_max=1, result=result)


def _run_jc_sweep(params: dict, explicit: set) -> CommandOutput:
    prep = AtomPrep(theta=params["theta"], phi=params["phi"])
    jc = JCParams(omega0=params["omega"], omega=params["omega"], coupling=params["coupling"])
    t_max, steps = params["t-max"], params["steps"]
    rows = _transient_rows(prep, jc, t_max, steps)
    # a range holding fewer than `steps` doubles repeats a time
    if not all(a[0] < b[0] for a, b in zip(rows, rows[1:])):
        raise InvalidParameter(f"t-max {t_max!r} and steps {steps!r} give no strictly ascending time grid")
    return _table(1, ["t", "variance_x1", "variance_x2", "db_x1", "db_x2"], rows)


def _run_wigner(params: dict, explicit: set) -> CommandOutput:
    from . import fock, superposition, wigner

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
    # each axis value is formatted once and its text repeated in every row
    x1_text, x2_text = (list(_cells(x)) for x in (grid.x1, grid.x2))
    return CommandOutput(
        n_max=1,
        result=result,
        columns={  # row-major: x1 outer, x2 inner
            "x1": [text for text in x1_text for _ in x2_text],
            "x2": x2_text * len(x1_text),
            "w": grid.values.ravel(),
        },
        extra_meta={"convention": "vacuum-variance=1/4", "integral": grid.integral},
    )


def _run_homodyne(params: dict, explicit: set) -> CommandOutput:
    from . import fock, homodyne, superposition

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
        "db_hat": variance_to_db(est.var_hat),
        "std_error_of_var": est.std_error_of_var,
        "std_error_normal_theory": est.std_error_normal_theory,
        "exact_variance": exact.variance,
        "exact_db": variance_to_db(exact.variance),
    }
    seeded = {"seed": params["seed"], "rng": homodyne.GENERATOR_ID}
    return CommandOutput(n_max=rho.n_max, result=result, columns={"sample": samples}, extra_meta=seeded)


def _run_phase_scan(params: dict, explicit: set) -> CommandOutput:
    from . import fock, homodyne, superposition

    spec = _source_spec(params)
    rho = fock.to_density(superposition.make_superposition(spec))
    rows = homodyne.phase_scan(
        rho, params["eta"], params["samples"], params["seed"], params["n-phases"]
    )
    header = ["phi_lo", "var_hat", "db_hat", "std_error", "var_exact", "db_exact"]
    return _table(rho.n_max, header, rows.tolist(), seed=params["seed"], rng=homodyne.GENERATOR_ID)


def _run_budget(params: dict, explicit: set) -> CommandOutput:
    from . import modes

    emitter = _emitter(params, explicit)
    spec = _source_spec(params, "rel-phase")
    window = params["window-lifetimes"]
    if window != math.inf and window <= 0.0:
        raise InvalidParameter(f"window-lifetimes must be > 0, got {window!r}")
    # each product is checked under its flag's name, as it over- or underflows without a warning
    rate = params["lo-rate-factor"] * emitter.gamma_rate / 2.0
    require_in("lo-rate-factor x gamma/2", rate, 0, open_lo=True)
    if window == math.inf:  # the untruncated LO's norm integral overflows for a rate below ~3e-309
        require_finite("1 / (2 x lo-rate-factor x gamma/2)", 1.0 / (2.0 * rate))
    else:
        require_in("window-lifetimes x lifetime", window * emitter.lifetime_tau, 0, open_lo=True)
    lo = modes.TemporalMode(rate=rate, window=window * emitter.lifetime_tau)
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
        "input_db": variance_to_db(budget.input_variance),
        "detected_variance": budget.detected_variance,
        "detected_db": budget.detected_db,
    }
    return CommandOutput(n_max=1, result=result)


def _run_window_sweep(params: dict, explicit: set) -> CommandOutput:
    from . import modes

    emitter = _emitter(params, explicit)
    spec = _source_spec(params, "rel-phase")
    steps = params["steps"]
    # each bound's window in seconds is checked under its flag's name;
    # a float product overflows to inf without a warning
    for name in ("min-lifetimes", "max-lifetimes"):
        require_finite(f"{name} x lifetime", params[name] * emitter.lifetime_tau)
    lo, hi = params["min-lifetimes"], params["max-lifetimes"]
    if not lo < hi:
        raise InvalidParameter(f"min-lifetimes must be < max-lifetimes, got {lo!r} and {hi!r}")
    tau = emitter.lifetime_tau
    windows = [w * tau for w in _linspace(lo, hi, steps)]
    # a range holding fewer than `steps` doubles, before or after scaling, repeats
    # a window, and a shortest window below the smallest double is 0 seconds
    if not (windows[0] > 0.0 and all(a < b for a, b in zip(windows, windows[1:]))):
        raise InvalidParameter(
            f"min-lifetimes {lo!r}, max-lifetimes {hi!r} and steps {steps!r} give no strictly"
            f" ascending grid of positive windows at lifetime {tau!r} s"
        )
    rows = modes._window_rows(spec, params["collection"], emitter, windows, params["detector"])
    header = ["window_s", "window_lifetimes", "eta_overlap", "detected_db"]
    return _table(1, header, [(w, w / tau, overlap, db) for w, overlap, db in rows])


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
            notes = [] if prm.domain is None else [_domain_words(prm.domain)]
            notes += [] if prm.cap is None else [f"at most {prm.cap:,}"]
            text = f"{prm.help}; {', '.join(notes)}" if notes else prm.help
            p.add_argument(f"--{prm.name}", type=prm.type, default=None, help=text)
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
    sink = contextlib.nullcontext(sys.stdout)
    if args.out is not None:
        sink = open(args.out, "w", encoding="utf-8", newline="")
    with sink as fh:
        if args.fmt == "json":
            _json_text(meta, out.result, fh)
        else:
            columns = out.columns
            if columns is None:  # the one-row table of scalar results
                columns = {k: [_fmt(v)] for k, v in out.result.items()}
            _csv_text(meta, columns, fh)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return EXIT_OK if exc.code in (0, None) else EXIT_PARAMETER
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
