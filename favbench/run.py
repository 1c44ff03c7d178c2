#!/usr/bin/env python3
"""favlab benchmark.

    python3 favbench/run.py --workload fig1_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; favlab is imported from its ``src/``.  The
run generates its inputs from the seed, repeats passes of the workload's
program calls for about ``--seconds`` seconds (the first pass always runs),
checks every output and prints a report, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  ``--trace 1`` alternates untraced and traced passes, reports
the per-layer metrics (medians over traced passes) and
``trace.overhead_ratio``, and writes the spans as JSON lines under
``favbench/out/``.  ``--workload all`` runs the three workloads in turn in
one process (its peak_rss_mb is the process peak so far).
``--size tiny`` shrinks every workload for the harness's own tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = {"full": 7, "tiny": 1}


def import_program():
    """Import favlab from this checkout's src/, or exit with an error."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import favlab
    except ImportError as e:
        sys.exit(f"favbench: cannot import favlab from {ROOT / 'src'}: {e}")
    if Path(favlab.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"favbench: favlab imported from {favlab.__file__}, not from src/")
    return favlab


def workers_for_run():
    return min(len(os.sched_getaffinity(0)), 4)


def setup_probe(workload, seed, size):
    """The set-up a fresh process pays before its first timed call: import
    favlab and the harness, read the configuration, generate the inputs."""
    import_program()
    import workloads

    workloads.WORKLOADS[workload](ROOT, seed, size, workers_for_run()).ops()
    print("ready", flush=True)


def measure_setup(workload, seed, size):
    """Median wall time, over fresh processes, from start to ``ready``."""
    times = []
    for _ in range(SETUP_PROBES[size]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--size", size]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------


def canon(x):
    """A value that compares equal exactly when two outputs are bit-identical."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, BaseException):
        return ("error", type(x).__name__, str(x))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, canon(vars(x)))
    if isinstance(x, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if hasattr(x, "vertices"):  # favlab.ifs.HullBody
        return canon(x.vertices)
    return x


class Run:
    """Passes of one workload, with the bookkeeping of failures."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = wl.ops()
        self.first = None  # outputs of the first pass
        self.first_canon = None
        self.failed_first = set()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, recorder=None):
        """Time one pass; return (wall, per-op seconds, outputs)."""
        out, secs = {}, {}
        t0 = perf_counter()
        for op in self.ops:
            a = perf_counter()
            try:
                if recorder is None:
                    out[op.name] = op.run(out)
                else:
                    with recorder.span(f"bench.{op.name}"):
                        out[op.name] = op.run(out)
            except Exception as e:  # keep running; judged below
                out[op.name] = e
            secs[op.name] = perf_counter() - a
        return perf_counter() - t0, secs, out

    def judge(self, out):
        """Count each op of a pass as attempted, and as failed when it raised
        an undocumented exception, its first-pass output failed a check, or
        it differs from the first pass."""
        import workloads

        if self.first is None:
            probs = self.wl.check(out)
            for name, value in out.items():
                if workloads.unexpected(value):
                    probs.setdefault(name, []).append(
                        "".join(traceback.format_exception(value)).strip()
                    )
            for name, p in probs.items():
                if p:
                    self.failed_first.add(name)
                    self.problems += [f"{name}: {msg}" for msg in p]
            self.first = out
            self.first_canon = {name: canon(v) for name, v in out.items()}
        for name, value in out.items():
            self.attempted += 1
            if name in self.failed_first:
                self.failed += 1
            elif value is not self.first[name] and canon(value) != self.first_canon[name]:
                self.failed += 1
                self.problems.append(f"{name}: output differs from the first pass")


def median_rate(secs, work):
    """Median over passes of sum(work) / sum(seconds) over the ops with work."""
    names = [name for name, w in work.items() if w]
    if not names:
        return None
    return statistics.median(sum(work[n] for n in names) / sum(s[n] for n in names) for s in secs)


def end_to_end(run, walls, secs):
    """End-to-end metrics of the untraced passes, medians over passes."""
    import workloads

    # an op that ended in a documented error merged nothing
    intervals = {op.name: 0 if workloads.is_error(run.first[op.name]) else op.intervals
                 for op in run.ops}
    pairs = {name: workloads.certificate_pairs(v) for name, v in run.first.items()}
    return {
        "wall_s": statistics.median(walls),
        "intervals_per_s": median_rate(secs, intervals),
        "pairs_per_s": median_rate(secs, pairs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": run.failed / run.attempted,
    }


UNITS = {"pairs_per_s": "1/s", "fail_ratio": "1", "passes": "count"}


def measure(run, seconds, hooks=None):
    """Repeat passes until one more would not fit in ``seconds`` of pass
    time; the checks between passes do not count.  With hooks, untraced and
    traced passes alternate, starting untraced.  Returns the untraced walls,
    their per-op seconds, and the traced walls and per-layer metrics."""
    import spans as spans_mod

    walls, secs, traced_walls, traced_metrics = [], [], [], []
    while True:
        if hooks and len(traced_walls) < len(walls):
            first_span = len(hooks.recorder.spans)
            with hooks:
                wall, _, out = run.one_pass(hooks.recorder)
            traced_walls.append(wall)
            this_pass = hooks.recorder.spans[first_span:]
            traced_metrics.append(spans_mod.layer_metrics(this_pass, hooks.absent))
        else:
            wall, s, out = run.one_pass()
            walls.append(wall)
            secs.append(s)
        run.judge(out)
        del out  # not kept alive through the next pass, which would raise peak memory
        if hooks and not traced_walls:
            continue
        next_traced = hooks and len(traced_walls) < len(walls)
        step = statistics.median(traced_walls if next_traced else walls)
        if sum(walls) + sum(traced_walls) + step > seconds:
            return walls, secs, traced_walls, traced_metrics


def print_table(units, metrics, extra):
    print(f"{'metric':<34}{'value':>16}  unit")
    for key, value in [(k, metrics.get(k)) for k in units] + list(extra.items()):
        shown = f"{value:.6g}" if value is not None else "n/a" if key in extra else "absent"
        print(f"{key:<34}{shown:>16}  {units.get(key) or UNITS[key]}")


def run_workload(name, seed, seconds, trace, size, spec):
    """Run one workload; return (JSON metrics, attempted, failed)."""
    import spans as spans_mod
    import workloads

    setup_s = None if trace else measure_setup(name, seed, size)
    workers = workers_for_run()
    wl = workloads.WORKLOADS[name](ROOT, seed, size, workers)
    run = Run(wl)
    env = environment(name, wl, workers)
    for line in env_lines(env):
        print(line)
    hooks = spans_mod.Hooks(spans_mod.SpanRecorder()) if trace else None
    walls, secs, traced_walls, traced_metrics = measure(run, seconds, hooks)

    for p in run.problems:
        print(f"FAILED {p}", file=sys.stderr)
    for op in run.ops:
        outcome = run.first[op.name]
        note = f" ended in {outcome}" if workloads.is_error(outcome) else ""
        print(f"# op {op.name}: median {statistics.median(s[op.name] for s in secs):.4f} s{note}")
    if trace:
        metrics = spans_mod.median_metrics(traced_metrics)
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        path = ROOT / "favbench" / "out" / f"trace-{name}-seed{seed}.jsonl"
        spans = hooks.recorder.spans
        spans_mod.write_jsonl(path, spans, {"workload": name, "seed": seed, "env": env})
        print(f"# {len(spans)} spans written to {path.relative_to(ROOT)}")
        table = spec["per_layer"]
        extra = {"passes": len(traced_walls)}
    else:
        metrics = end_to_end(run, walls, secs)
        metrics["setup_s"] = setup_s
        table = spec["end_to_end"]
        extra = {k: metrics[k] for k in ("pairs_per_s", "fail_ratio")}
        extra["passes"] = len(walls)
    units = {m["name"]: m["unit"] for m in table}
    print_table(units, metrics, extra)
    print(f"{'attempted':<34}{run.attempted:>16}  ops\n{'failed':<34}{run.failed:>16}  ops")
    result = {m: {"value": metrics.get(m), "unit": u} for m, u in units.items()}
    return result, run.attempted, run.failed


# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def llc_bytes():
    """Size of the largest-level cache of CPU 0, from sysfs; 0 if unknown."""
    best = (0, 0)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, size = _read(index / "level").strip(), _read(index / "size").strip()
        if level.isdigit() and size[:-1].isdigit():
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            best = max(best, (int(level), int(size[:-1]) * scale))
    return best[1]


def environment(name, wl, workers):
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "workload": name,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "llc_bytes": llc_bytes(),
        "working_set_bytes": wl.working_set(workers),
    }


def env_lines(env):
    mb = 1024.0**2
    yield (f"# {env['workload']}: nproc={env['nproc']} workers={env['workers']} "
           f"python={env['python']} numpy={env['numpy']}")
    yield f"# cpu: {env['cpu']}, last-level cache {env['llc_bytes'] / mb:.1f} MiB"
    ws = ", ".join(f"{k} {v / mb:.2f} MiB" for k, v in env["working_set_bytes"].items())
    yield f"# working set (computed from array sizes): {ws}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig1_sweep", "generic_cover", "certify", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.size)
        return 0
    import_program()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ["fig1_sweep", "generic_cover", "certify"] if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, args.trace, args.size, spec)
        attempted += a
        failed += f
        metrics.update({f"{name}.{k}" if len(names) > 1 else k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
