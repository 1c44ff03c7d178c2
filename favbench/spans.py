"""Span recorder for the traced run, the hooks that wrap favlab's public
functions from outside, and the per-layer metrics computed from the spans.

A hook replaces a function in every favlab module namespace that holds it
(or a method on its class), so calls between favlab modules go through the
wrapper too.  A hook whose target no longer resolves is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import merge_bytes

ID, NAME, START, END, PARENT, THREAD, COUNTS = range(7)


class SpanRecorder:
    """Keeps (id, name, start, end, parent, thread, counts) records in memory.

    The parent of a span is the innermost open span on its thread.  A span
    opened on a thread with no open span (a sweep worker) takes the innermost
    open span of the thread that created the recorder, which is blocked
    waiting for that worker.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and self._main_stack:
            parent = self._main_stack[-1]
        rec = [next(self._ids), name, perf_counter(), None, parent, threading.get_ident(), None]
        stack.append(rec[ID])
        self.spans.append(rec)
        return rec

    def close(self, rec, counts=None):
        rec[END] = perf_counter()
        rec[COUNTS] = counts
        self._stack().pop()

    @contextmanager
    def span(self, name):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self.close(rec, {"error": type(e).__name__})
                raise
            self.close(rec, counter(args, kwargs, out) if counter else None)
            return out

        return wrapper


def _sweep_counts(args, kwargs, out):
    favard = sys.modules["favlab.favard"]
    a = dict(zip(("ifs", "ns", "thetas", "body", "workers", "cap"), args), **kwargs)
    m = a["ifs"].m
    return {
        "intervals": sum(m**n for n in a["ns"]) * len(list(a["thetas"])),
        "workers": a.get("workers") or favard.default_workers(),
    }


# (module, attribute, span name, counter(args, kwargs, output) -> dict)
HOOKS = (
    ("favlab.favard", "projection_sweep", "favard.sweep", _sweep_counts),
    (
        "favlab.favard",
        "merge_intervals",
        "favard.merge",
        lambda a, k, out: {"in": len(a[0]), "out": len(out)},
    ),
    ("favlab.favard", "neighborhood_projection_length", "favard.nbhd", None),
    ("favlab.ifs", "IFS.compose", "ifs.compose", lambda a, k, out: {"symbols": len(a[1])}),
    ("favlab.ifs", "IFS.pi_point", "ifs.pi_point", None),
    ("favlab.ifs", "IFS.mass_band", "ifs.mass_band", lambda a, k, out: {"words": len(out)}),
    ("favlab.ifs", "attractor_hull", "ifs.hull", None),
    (
        "favlab.relclose",
        "check_relclose",
        "relclose.check",
        lambda a, k, out: {"passed": int(out.passed)},
    ),
    ("favlab.relclose", "find_pair", "relclose.find_pair", None),
    ("favlab.rotation", "epsilon_net", "rotation.epsilon_net", None),
    (
        "favlab.rotation",
        "steering_suffix",
        "rotation.steering",
        lambda a, k, out: {"symbols": len(out)},
    ),
    (
        "favlab.projection",
        "visibility_estimate",
        "projection.visibility",
        lambda a, k, out: {"components": out.components},
    ),
    ("favlab.projection", "density_witness", "projection.density_witness", None),
)


class Hooks:
    """Installs the wrappers of HOOKS for the duration of a ``with`` block."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.absent = set()
        self._targets = []  # (owner, attribute, original, wrapper)
        for module, attr, name, counter in HOOKS:
            try:
                owner = importlib.import_module(module)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = recorder.wrap(name, original, counter)
            if isinstance(owner, type):
                self._targets.append((owner, last, original, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "favlab" or mod_name.startswith("favlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._targets.append((mod, key, original, wrapper))

    def __enter__(self):
        for owner, key, _, wrapper in self._targets:
            setattr(owner, key, wrapper)
        self.recorder.active = True
        return self

    def __exit__(self, *exc):
        self.recorder.active = False
        for owner, key, original, _ in self._targets:
            setattr(owner, key, original)


# ---------------------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(s[ID], ())):
            a, b = max(a, reach), min(b, s[END])
            if b > a:
                covered += b - a
                reach = b
        out[s[ID]] = s[END] - s[START] - covered
    return out


def layer_metrics(spans, absent):
    """Per-layer metrics of one traced pass.  A metric whose hook is absent is
    None.  Times of a layer are summed over its outermost spans (over threads
    for the merges of a parallel sweep)."""
    by_id = {s[ID]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def outermost(name):
        out = []
        for s in by_name[name]:
            p = s[PARENT]
            while p is not None and by_id[p][NAME] != name:
                p = by_id[p][PARENT]
            if p is None:
                out.append(s)
        return out

    def seconds(name):
        return sum(s[END] - s[START] for s in outermost(name))

    def calls(name):
        return len(by_name[name])

    def total(name, key):
        return sum((s[COUNTS] or {}).get(key, 0) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = self_times(spans)
    sweeps = by_name["favard.sweep"]
    t_by_workers = defaultdict(float)
    for s in sweeps:
        t_by_workers[(s[COUNTS] or {}).get("workers", 0)] += s[END] - s[START]
    p = max(t_by_workers, default=1)
    parallel_eff = (
        ratio(t_by_workers[1], p * t_by_workers[p]) if p > 1 and 1 in t_by_workers else 0.0
    )
    merges = by_name["favard.merge"]
    merged_in, merged_out = total("favard.merge", "in"), total("favard.merge", "out")
    checks = calls("relclose.check")
    values = {}

    def put(metric, value, *hooks):
        values[metric] = None if absent.intersection(hooks) else value

    put("favard.sweep_s", seconds("favard.sweep"), "favard.sweep")
    put("favard.sweep_self_s", sum(selfs[s[ID]] for s in sweeps), "favard.sweep", "favard.merge")
    put("favard.merge_s", seconds("favard.merge"), "favard.merge")
    put("favard.merge_calls", len(merges), "favard.merge")
    put("favard.intervals_merged", merged_in, "favard.merge")
    put("favard.components_out", merged_out, "favard.merge")
    put("favard.merge_yield", ratio(merged_out, merged_in), "favard.merge")
    put("favard.merge_bytes_computed",
        sum(merge_bytes(s[COUNTS]["in"], s[COUNTS]["out"]) for s in merges if "in" in s[COUNTS]),
        "favard.merge")
    put("favard.parallel_eff", parallel_eff, "favard.sweep")
    put("favard.nbhd_s", seconds("favard.nbhd"), "favard.nbhd")
    put("ifs.compose_calls", calls("ifs.compose"), "ifs.compose")
    put("ifs.compose_symbols", total("ifs.compose", "symbols"), "ifs.compose")
    put("ifs.compose_s", seconds("ifs.compose"), "ifs.compose")
    put("ifs.pi_point_calls", calls("ifs.pi_point"), "ifs.pi_point")
    put("ifs.pi_point_s", seconds("ifs.pi_point"), "ifs.pi_point")
    put("ifs.mass_band_s", seconds("ifs.mass_band"), "ifs.mass_band")
    put("ifs.mass_band_words", total("ifs.mass_band", "words"), "ifs.mass_band")
    put("ifs.hull_s", seconds("ifs.hull"), "ifs.hull")
    put("relclose.check_calls", checks, "relclose.check")
    put("relclose.check_s", seconds("relclose.check"), "relclose.check")
    put("relclose.check_pass_ratio", ratio(total("relclose.check", "passed"), checks),
        "relclose.check")
    put("relclose.find_pair_calls", calls("relclose.find_pair"), "relclose.find_pair")
    put("relclose.find_pair_s", seconds("relclose.find_pair"), "relclose.find_pair")
    put("rotation.epsilon_net_calls", calls("rotation.epsilon_net"), "rotation.epsilon_net")
    put("rotation.epsilon_net_s", seconds("rotation.epsilon_net"), "rotation.epsilon_net")
    put("rotation.steering_s", seconds("rotation.steering"), "rotation.steering")
    put("rotation.steering_symbols", total("rotation.steering", "symbols"), "rotation.steering")
    put("projection.visibility_calls", calls("projection.visibility"), "projection.visibility")
    put("projection.visibility_s", seconds("projection.visibility"), "projection.visibility")
    put("projection.arc_components", total("projection.visibility", "components"),
        "projection.visibility")
    put("projection.density_witness_s", seconds("projection.density_witness"),
        "projection.density_witness")
    return values


def median_metrics(passes):
    """Median of each metric over traced passes; None stays None."""
    out = {}
    for name in passes[0]:
        vals = [p[name] for p in passes]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out


def write_jsonl(path, spans, header):
    """One header line, then one line per span with its self time."""
    selfs = self_times(spans)
    threads = {}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            line = {
                "id": s[ID],
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "self": selfs[s[ID]],
                "parent": s[PARENT],
                "thread": threads.setdefault(s[THREAD], len(threads)),
            }
            if s[COUNTS]:
                line.update(s[COUNTS])
            fh.write(json.dumps(line) + "\n")
