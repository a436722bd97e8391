"""The benchmark's three workloads: request decks, requests and output checks.

A deck is the unit a run repeats: a fixed multiset of requests whose order
and parameters are drawn from the workload seed and the deck index, so
every whole deck carries the same mix of work.  Requests call only the CLI
or names in `atomsqueeze.__all__`.  Why each workload exists, and which
layer should move which metric on it, is in README.md next to this file.

`check` raises on wrong output; `execute` raises when no output comes back.
"""

import csv
import io
import json
import math
import subprocess
import sys
import time

import numpy as np

import atomsqueeze as aq
import common

CHILD_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    """A request returned output that fails its check."""


class RequestError(Exception):
    """A request ended without output (non-zero exit)."""


class Request:
    """One unit of user work: a size tag (n1, n20, n52, n100) and parameters."""

    __slots__ = ("tag", "params")

    def __init__(self, tag: str, **params):
        self.tag = tag
        self.params = params

    def __repr__(self):
        return f"Request({self.tag}, {self.params})"


def _rng(seed: int, deck: int) -> np.random.Generator:
    return np.random.default_rng([seed, deck])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------- cli_readme

# the seven README example invocations: (argv, format, expected table rows)
README_INVOCATIONS = (
    (["variance", "--beta", "0.5", "--phi", "0"], "json", None),
    (["jc-sweep", "--theta", "2.0944", "--phi", "1.5708", "--t-max", "6.2832", "--steps", "200"], "csv", 200),
    (["wigner", "--beta", "0.57735", "--phi", "0", "--res", "201", "--out", "{out}"], "csv", 201 * 201),
    (["homodyne", "--beta", "0.5", "--samples", "100000", "--seed", "{seed}"], "json", None),
    (["phase-scan", "--beta", "0.5", "--phi", "1.5708", "--samples", "2000", "--seed", "{seed}"], "csv", 16),
    (["budget", "--collection", "0.94", "--lifetime-ns", "230", "--window-lifetimes", "5"], "json", None),
    (
        ["window-sweep", "--collection", "0.94", "--min-lifetimes", "0.5", "--max-lifetimes", "10", "--steps", "20"],
        "csv",
        20,
    ),
)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _check_finite_json(node, where="$"):
    if isinstance(node, dict):
        for k, v in node.items():
            _check_finite_json(v, f"{where}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _check_finite_json(v, f"{where}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise CheckFailed(f"non-finite number at {where}")


def _parse_csv(text: str, expected_rows):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not body:
        raise CheckFailed("CSV output has no header")
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    header, data = rows[0], rows[1:]
    if expected_rows is not None and len(data) != expected_rows:
        raise CheckFailed(f"CSV has {len(data)} rows, expected {expected_rows}")
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise CheckFailed(f"CSV row {i} has {len(row)} cells for {len(header)} columns")
        for cell in row:
            if not math.isfinite(float(cell)):
                raise CheckFailed(f"non-finite CSV cell {cell!r} in row {i}")


class CliReadme:
    """Each request is one cold `python -m atomsqueeze.cli ...` process."""

    name = "cli_readme"
    in_process = False
    PASSES = 2  # README passes per deck

    def __init__(self):
        self.processes = []  # per traced child: import_s, python_s, wall_s

    def deck(self, seed: int, index: int) -> list:
        rng = _rng(seed, index)
        out = str((common.OUT_DIR / "readme-wigner.csv").relative_to(common.ROOT))
        reqs = []
        for _ in range(self.PASSES):
            for argv, fmt, rows in README_INVOCATIONS:
                filled = [a.format(out=out, seed=_seed(rng)) if "{" in a else a for a in argv]
                reqs.append(Request("n1", argv=filled, fmt=fmt, rows=rows))
        return reqs

    def warmup(self, seed: int):
        return None

    def execute(self, req: Request, rec=None):
        argv = req.params["argv"]
        if rec is None:
            cmd = [sys.executable, "-m", "atomsqueeze.cli", *argv]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "cold.py"), "cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd,
            cwd=common.ROOT,
            env=common.child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        stderr = proc.stderr
        if rec is not None:
            stderr, _, payload = stderr.rpartition(common.TRACE_MARKER)
            if payload:
                data = json.loads(payload)
                rec.merge(data["spans"])
                self.processes.append(
                    {"import_s": data["import_s"], "python_s": data["python_s"], "wall_s": wall}
                )
        if proc.returncode != 0:
            raise RequestError(f"exit {proc.returncode}: {stderr.strip()[-300:]}")
        if "--out" in argv:
            return (common.ROOT / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        return proc.stdout

    def check(self, req: Request, text: str) -> None:
        if req.params["fmt"] == "json":
            doc = json.loads(text, parse_constant=_reject_constant)
            _check_finite_json(doc)
            if req.params["argv"][0] == "variance":
                v = doc["result"]["min_variance"]
                if not abs(v - 3.0 / 16.0) <= 1e-12:
                    raise CheckFailed(f"min_variance {v!r} is not 3/16 within 1e-12")
        else:
            _parse_csv(text, req.params["rows"])


# ---------------------------------------------------------- fock_truncation


class FockTruncation:
    """In-process: characterise one truncated state per request."""

    name = "fock_truncation"
    in_process = True
    # per deck: the heavy cutoffs once each, so whole decks share one mix;
    # n1 requests hold the median and n20 the tail (see README.md)
    MIX = (("n1", 60), ("n20", 28), ("n52", 1), ("n100", 1))
    XIS = (0.25, 0.5, 0.75, 1.0)
    LO_PHASES = tuple(np.linspace(0.0, math.pi, 8, endpoint=False))
    WIGNER_RESOLUTION = 41
    SAMPLES = 10_000
    SQUEEZED, ANTI_SQUEEZED = 0.0, math.pi / 2.0

    def deck(self, seed: int, index: int) -> list:
        rng = _rng(seed, index)
        reqs = []
        for tag, count in self.MIX:
            n_max = int(tag[1:])
            if n_max == 1:
                xis = [None] * count
            elif count % len(self.XIS) == 0:
                xis = list(rng.permutation(np.repeat(self.XIS, count // len(self.XIS))))
            else:
                xis = list(rng.choice(self.XIS, size=count))
            for xi in xis:
                reqs.append(
                    Request(
                        tag,
                        n_max=n_max,
                        xi=None if xi is None else float(xi),
                        eta=float(rng.uniform(0.5, 1.0)),
                        seed=_seed(rng),
                    )
                )
        order = [reqs[i] for i in rng.permutation(len(reqs))]
        # The n52 and n100 requests keep their seeded slots but always run in
        # ascending cutoff order: heap that n52 leaves behind raises the n100
        # peak RSS by ~12 MiB, so a seeded order would make peak_rss_mb bimodal.
        slots = [i for i, r in enumerate(order) if r.params["n_max"] > 20]
        for i, r in zip(slots, sorted((order[i] for i in slots), key=lambda r: r.params["n_max"])):
            order[i] = r
        return order

    def warmup(self, seed: int):
        return next(r for r in self.deck(seed, 0) if r.tag == "n1")

    def execute(self, req: Request, rec=None) -> dict:
        p = req.params
        if p["n_max"] == 1:
            state = aq.to_density(aq.make_superposition(aq.SuperpositionSpec(beta_abs=0.5, rel_phase=0.0)))
        else:
            vec, _ = aq.squeezed_vacuum(p["xi"], p["n_max"])
            state = aq.to_density(vec)
        lossy = aq.apply_loss(state, p["eta"])
        stats = [aq.quadrature_stats(lossy, phi) for phi in self.LO_PHASES]
        grid = aq.wigner_of_state(lossy, resolution=self.WIGNER_RESOLUTION)
        # homodyne last: it is the step most likely to fail
        samples = [
            aq.sample_quadratures(aq.HomodyneRun(lossy, phi, 1.0, self.SAMPLES, p["seed"]))
            for phi in (self.SQUEEZED, self.ANTI_SQUEEZED)
        ]
        return {"state": state, "stats": stats, "grid": grid, "samples": samples}

    def check(self, req: Request, out: dict) -> None:
        eta = req.params["eta"]
        for phi, st in zip(self.LO_PHASES, out["stats"]):
            v = aq.quadrature_stats(out["state"], phi).variance
            want = eta * v + (1.0 - eta) / 4.0
            if not abs(st.variance - want) <= 1e-12:
                raise CheckFailed(f"variance after loss {st.variance!r} != eta V + (1-eta)/4 = {want!r}")
        if not np.all(np.isfinite(out["grid"].values)):
            raise CheckFailed("Wigner grid has non-finite values")
        for s in out["samples"]:
            if s.shape != (self.SAMPLES,) or not np.all(np.isfinite(s)):
                raise CheckFailed("homodyne samples are missing or non-finite")


# --------------------------------------------------------------- atom_sweep


def quarter_period_source(prep) -> "aq.SuperpositionSpec":
    """Field left by the atom at coupling*t = pi/2: sin(theta/2)|0> + |cos(theta/2)| e^{i rel}|1>."""
    c = math.cos(prep.theta / 2.0)
    rel = (-prep.phi - math.pi / 2.0 + (math.pi if c < 0.0 else 0.0)) % (2.0 * math.pi)
    return aq.SuperpositionSpec(beta_abs=abs(c), rel_phase=rel)


class AtomSweep:
    """In-process: analyse one seeded atom preparation per request, all at n_max = 1."""

    name = "atom_sweep"
    in_process = True
    DECK = 14
    JC = dict(omega0=0.0, omega=0.0, coupling=1.0)
    T_MAX = 2.0 * math.pi
    T_POINTS = 2000
    LIFETIME_S = 230e-9
    WINDOWS = tuple(np.linspace(0.5, 10.0, 50))  # in lifetimes
    PHASES = 32
    SCAN_SAMPLES = 2000
    DRAW_SAMPLES = 1_000_000

    def deck(self, seed: int, index: int) -> list:
        rng = _rng(seed, index)
        return [
            Request(
                "n1",
                theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                collection=float(rng.uniform(0.5, 1.0)),
                seed=_seed(rng),
            )
            for _ in range(self.DECK)
        ]

    def warmup(self, seed: int):
        return self.deck(seed, 0)[0]

    def execute(self, req: Request, rec=None) -> dict:
        p = req.params
        prep = aq.AtomPrep(theta=p["theta"], phi=p["phi"])
        jc = aq.JCParams(**self.JC)
        transient = aq.transient_sweep(prep, jc, self.T_MAX, self.T_POINTS)
        dipole = aq.dipole_squeezing_check(prep)
        source = quarter_period_source(prep)
        emitter = aq.EmitterParams.from_lifetime(self.LIFETIME_S)
        windows = np.asarray(self.WINDOWS) * self.LIFETIME_S
        tradeoff = aq.window_tradeoff(source, p["collection"], emitter, windows)
        eta_total = p["collection"] * float(tradeoff[-1, 1])
        rho = aq.to_density(aq.make_superposition(source))
        scan = aq.phase_scan(rho, eta_total, self.SCAN_SAMPLES, p["seed"], self.PHASES)
        run = aq.HomodyneRun(rho, source.rel_phase, eta_total, self.DRAW_SAMPLES, p["seed"])
        estimate = aq.estimate_variance(aq.sample_quadratures(run))
        return {
            "prep": prep,
            "transient": transient,
            "dipole": dipole,
            "emitter": emitter,
            "windows": windows,
            "tradeoff": tradeoff,
            "scan": scan,
            "estimate": estimate,
        }

    def check(self, req: Request, out: dict) -> None:
        prep, coupling = out["prep"], self.JC["coupling"]
        for t, v1, v2, *_ in out["transient"]:
            w1, w2 = aq.closed_form_variances(prep, coupling * t)
            if not (abs(v1 - w1) <= 1e-12 and abs(v2 - w2) <= 1e-12):
                raise CheckFailed(f"transient at t={t!r}: ({v1!r}, {v2!r}) != closed form ({w1!r}, {w2!r})")
        gamma = out["emitter"].gamma_rate
        for w, row in zip(out["windows"], out["tradeoff"]):
            want = aq.matched_overlap(gamma, float(w))
            if not abs(row[1] - want) <= 1e-10:
                raise CheckFailed(f"eta_overlap {row[1]!r} != matched_overlap {want!r} at window {w!r}")
        if out["scan"].shape != (self.PHASES, 6) or not np.all(np.isfinite(out["scan"])):
            raise CheckFailed("phase scan rows are missing or non-finite")
        if not (math.isfinite(out["estimate"].var_hat) and out["estimate"].n == self.DRAW_SAMPLES):
            raise CheckFailed("variance estimate is non-finite or miscounted")


WORKLOADS = {w.name: w for w in (CliReadme, FockTruncation, AtomSweep)}
