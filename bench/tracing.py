"""Span recorder for the traced benchmark runs.

`install` replaces the public functions of each atomsqueeze module (and the
constructors that validate states and temporal modes) with wrappers that
record a span per call: name, start, end, parent span and request id.
Every module attribute bound to a wrapped function is replaced, including
the `from .x import y` copies in other modules and in the package
namespace, so intra-package calls are caught as well.  Spans stay in
memory, in flat arrays, and are written out once at the end of a run.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

import functools
import inspect
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "atomsqueeze"
MODULES = ("fock", "superposition", "jaynes_cummings", "wigner", "homodyne", "modes")

# constructors whose validation is a cost of its own (eigvalsh, quad norms)
CONSTRUCTORS = (
    ("fock", "FockVector", "fock.state_build"),
    ("fock", "FockDensity", "fock.state_build"),
    ("modes", "TemporalMode", "modes.temporal_mode_build"),
)

COUNTERS = ("wigner.kernel_evals", "homodyne.marginal_evals", "homodyne.samples_drawn")
# work counts derived from call arguments, labelled "computed" wherever reported
COMPUTED_COUNTS = ("wigner.kernel_evals", "homodyne.marginal_evals")


class Recorder:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_tags: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_request(self, tag: str) -> None:
        self.request_tags.append(tag)

    @property
    def request_id(self) -> int:
        return len(self.request_tags) - 1

    def call(self, nid: int, fn, args, kwargs):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def export(self) -> dict:
        """Plain-data copy of the spans and counters, for another process."""
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict) -> None:
        """Append another process's export under the current request."""
        offset = len(self.start)
        remap = [self.name_index(n) for n in data["names"]]
        self.name_id.extend(remap[i] for i in data["name_id"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else self._stack[-1] for p in data["parent"])
        self.request.extend([self.request_id] * len(data["start"]))
        for name, v in data["counts"].items():
            self.count(name, v)

    def save(self, path) -> None:
        """Write the spans as arrays (names, name_id, start, end, parent, request, tags)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            request=np.asarray(self.request),
            request_tags=np.array(self.request_tags),
        )


def _bound(fn, args, kwargs) -> dict:
    """Arguments of a call by parameter name, defaults included ({} if they do not bind)."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _wigner_kernel_evals(rec, fn, args, kwargs):
    """Laguerre kernel evaluations: diagonal + nonzero upper rho entries, times grid points."""
    a = _bound(fn, args, kwargs)
    state, res = a.get("state"), a.get("resolution")
    if state is None or res is None:
        return
    rho = state.matrix
    terms = rho.shape[0] + int(np.count_nonzero(np.triu(rho, k=1)))
    rec.count("wigner.kernel_evals", float(terms * res * res))


def _marginal_evals(module):
    points = getattr(module, "CDF_POINTS", 2**16)

    def counter(rec, fn, args, kwargs):
        state = _bound(fn, args, kwargs).get("state")
        if state is not None:
            dim = state.matrix.shape[0]
            rec.count("homodyne.marginal_evals", float(points * dim * dim))

    return counter


def _samples_from_run(rec, fn, args, kwargs):
    run = _bound(fn, args, kwargs).get("run")
    if run is not None:
        rec.count("homodyne.samples_drawn", float(run.n_samples))


def _samples_from_scan(rec, fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    if "n_samples" in a and "n_phases" in a:
        rec.count("homodyne.samples_drawn", float(a["n_samples"] * a["n_phases"]))


def _wrap(rec: Recorder, name: str, fn, counter=None):
    nid = rec.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        if counter is not None:
            counter(rec, fn, args, kwargs)
        return rec.call(nid, fn, args, kwargs)

    return traced


class Installation:
    """The attribute replacements made by `install`; `remove` undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._dict_undo: list[tuple[dict, object, object]] = []

    def setattr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def setitem(self, mapping: dict, key, value) -> None:
        self._dict_undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        for mapping, key, old in reversed(self._dict_undo):
            mapping[key] = old
        self._undo.clear()
        self._dict_undo.clear()


def install(rec: Recorder) -> Installation:
    """Wrap the package's public functions, constructors and CLI stages in spans.

    Names that a refactor removed are skipped; their metrics read zero.
    """
    inst = Installation()
    modules = {m: sys.modules.get(f"{PACKAGE}.{m}") for m in MODULES}
    counters = {
        "wigner.wigner_of_state": _wigner_kernel_evals,
        "homodyne.sample_quadratures": _samples_from_run,
        "homodyne.phase_scan": _samples_from_scan,
    }
    if modules["homodyne"] is not None:
        counters["homodyne.tabulated_cdf"] = _marginal_evals(modules["homodyne"])

    replaced: dict[int, object] = {}
    for short, mod in modules.items():
        if mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            replaced[id(obj)] = _wrap(rec, name, obj, counters.get(name))
    for short, cls_name, span in CONSTRUCTORS:
        cls = getattr(modules[short], cls_name, None)
        post = getattr(cls, "__post_init__", None) if cls is not None else None
        if post is not None:
            inst.setattr(cls, "__post_init__", _wrap(rec, span, post))

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                inst.setattr(mod, attr, replaced[id(obj)])

    cli = sys.modules.get(f"{PACKAGE}.cli")
    if cli is not None:
        for command, handler in list(getattr(cli, "HANDLERS", {}).items()):
            inst.setitem(cli.HANDLERS, command, _wrap(rec, "cli.compute", handler))
        for attr in ("_meta", "_json_text", "_csv_text", "_scalar_table"):
            fn = getattr(cli, attr, None)
            if inspect.isfunction(fn):
                inst.setattr(cli, attr, _wrap(rec, "cli.serialize", fn))
    return inst


class SpanTable:
    """Self and inclusive times, call counts and counters aggregated by span name."""

    def __init__(self, rec: Recorder):
        name_id = np.asarray(rec.name_id)
        parent = np.asarray(rec.parent)
        dur = np.asarray(rec.end) - np.asarray(rec.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        tags = np.array(rec.request_tags + [""])
        span_tags = tags[np.asarray(rec.request)]  # request -1 maps to the "" sentinel
        k = len(rec.names)
        self._self = dict(zip(rec.names, np.bincount(name_id, weights=self_time, minlength=k).tolist()))
        self._incl = dict(zip(rec.names, np.bincount(name_id, weights=dur, minlength=k).tolist()))
        self._calls = dict(zip(rec.names, np.bincount(name_id, minlength=k).tolist()))
        self._self_by_tag = {}
        for tag in set(rec.request_tags):
            mask = span_tags == tag
            per_name = np.bincount(name_id[mask], weights=self_time[mask], minlength=k).tolist()
            self._self_by_tag.update(((name, tag), v) for name, v in zip(rec.names, per_name))
        self.counts = dict(rec.counts)

    # a span name that never ran (a layer the workload bypasses) reads zero
    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def inclusive_s(self, name: str) -> float:
        return self._incl.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def self_s_at(self, name: str, tag: str) -> float:
        return self._self_by_tag.get((name, tag), 0.0)

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    def module_self_s(self, module: str) -> float:
        return math.fsum(v for k, v in self._self.items() if k.startswith(module + "."))
