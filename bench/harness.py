"""Timed and traced runs of one workload.

A workload object provides:

* ``setup(sk)``: build the inputs through the library (timed as set-up);
* ``prepare()``: the benchmark's own bookkeeping, never timed;
* ``ops()``: an endless, seed-determined stream of ``Op``;
* ``call(op)``: the operation a user waits for (timed);
* ``replay(op)``: the same operation in process, for the traced run;
* ``check(op, result)``: ``None`` when right, else the reason it is
  wrong.  Every operation is expected to succeed, so one failure makes
  the run incorrect;
* ``probe()`` (optional): untimed side checks, reported in the run
  record and, on the traced run, as per-layer metrics;
* ``round_size``: operations per round; every round has the same mix of
  operation kinds, and the seed only picks their inputs;
* ``traced_ops``: how many operations the traced run replays;
* ``subprocesses``: whether ``call`` runs child processes, whose peak
  memory is then the one reported.

Load is a closed loop with one client: the next operation starts only
after the previous one returned.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import growth
import tracing

MIN_OPS = 100
SETUPS = 15
# median times of reference_loop and of a bare interpreter start on the
# host the README's figures come from
REFERENCE_MS = 2.2
REFERENCE_CHILD_MS = 70
GAUGE_WINDOW = 4
INTERP_SAMPLES = 3
PROBE_PAIRS = 8


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    expect: object


class Tally:
    """Per-kind attempted/failed counts and the first few failure reasons."""

    def __init__(self):
        self.attempted, self.failed = Counter(), Counter()
        self.examples = []

    def add(self, op, reason):
        self.attempted[op.kind] += 1
        if reason is None:
            return
        self.failed[op.kind] += 1
        if len(self.examples) < 8:
            self.examples.append(f"{op.kind}: {reason}")

    def summary(self):
        return {
            "attempted": dict(sorted(self.attempted.items())),
            "failed": dict(sorted(self.failed.items())),
            "failure_examples": self.examples,
        }


def p90(samples):
    """Nearest-rank 90th percentile; with 100 or more samples at least 10 lie beyond it."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_op(workload, op, fn):
    """Time one operation; an exception is the operation's failure, not the run's."""
    start = perf_counter()
    try:
        result = fn(op)
    except Exception as exc:  # the loop must go on; the failure is counted
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    return elapsed, result, workload.check(op, result)


def _is_package(name):
    return name == "skelkit" or name.startswith("skelkit.")


def fresh_import():
    """Import skelkit from scratch, as a new process would."""
    for name in [n for n in sys.modules if _is_package(n)]:
        del sys.modules[name]
    return importlib.import_module("skelkit")


def child_env():
    """Environment for child interpreters: skelkit from ./src of the checkout run.py changed to."""
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def interp_ms(code="pass"):
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=60,
                   env=child_env())
    return (perf_counter() - start) * 1000


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def reference_loop():
    """Fixed pure-Python work, independent of skelkit, whose time gauges the host's speed."""
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
        seen[(i, i % 7)] = acc
    return sorted(seen.items(), key=lambda kv: kv[1])[0]


def gauge():
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def child_gauge():
    return interp_ms() / 1000


def scaled(times, gauges, reference_ms):
    """Each time scaled to the reference speed by the median of the gauges taken around it."""
    out = []
    for i, elapsed in enumerate(times):
        near = gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1]
        out.append(elapsed * reference_ms / 1000 / statistics.median(near))
    return out


def time_metrics(setups, times):
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": p90(times) * 1000,
    }


def probe(workload):
    return workload.probe() if hasattr(workload, "probe") else {}


def timed_run(make, seconds):
    """End-to-end metrics with tracing off.

    SETUPS timed set-ups come first, each from a fresh import; the last
    one's inputs are used.  The single timed pass then draws whole rounds
    from the seeded stream until it has spent `seconds` inside operations
    and done at least MIN_OPS, so every run measures the same mix.

    A shared host runs everything slower or faster by up to a half for
    seconds to minutes at a time.  So a gauge runs, untimed, before
    every set-up and every operation, and each time is scaled to the
    reference speed by the median of the gauges within GAUGE_WINDOW
    places of it.  In-process work is gauged by the reference loop
    (REFERENCE_MS); operations that run a child process by a bare
    interpreter start (REFERENCE_CHILD_MS), which child start-up follows
    and the reference loop does not.  The run record keeps the raw
    wall-clock metrics too.
    """
    info = {"interp_ms": statistics.median(interp_ms() for _ in range(INTERP_SAMPLES))}
    setups, setup_gauges = [], []
    for _ in range(SETUPS):
        setup_gauges.append(gauge())
        start = perf_counter()
        sk = fresh_import()
        workload = make()
        workload.setup(sk)
        setups.append(perf_counter() - start)
    workload.prepare()

    op_gauge, op_reference = (child_gauge, REFERENCE_CHILD_MS) if workload.subprocesses \
        else (gauge, REFERENCE_MS)
    tally, times, gauges = Tally(), [], []
    stream, busy = workload.ops(), 0.0
    while busy < seconds or len(times) < MIN_OPS or len(times) % workload.round_size:
        op = next(stream)
        gauges.append(op_gauge())
        elapsed, _, verdict = run_op(workload, op, workload.call)
        times.append(elapsed)
        busy += elapsed
        tally.add(op, verdict)

    attempted = len(times)
    failed = sum(tally.failed.values())
    metrics = {
        **time_metrics(scaled(setups, setup_gauges, REFERENCE_MS), scaled(times, gauges, op_reference)),
        "peak_rss_mb": peak_rss_mb(children=workload.subprocesses),
    }
    info.update(samples=attempted, ops_s=busy, raw=time_metrics(setups, times),
                reference_ms=statistics.median(setup_gauges) * 1000,
                op_gauge_ms=statistics.median(gauges) * 1000,
                setup_samples_s=setups, fail_ratio=failed / attempted, **tally.summary(),
                probe=probe(workload))
    return metrics, attempted, failed, failed == 0, info


def traced_run(workload, spans_path):
    """Per-layer metrics: one untraced and one traced pass over the same fixed operations."""
    sk = importlib.import_module("skelkit")
    importlib.import_module("skelkit.cli")
    tracer = tracing.Tracer()
    tracer.phase = "setup"
    with tracing.installed(tracer):
        workload.setup(sk)
    tracer.phase = "ops"
    workload.prepare()
    ops = list(itertools.islice(workload.ops(), workload.traced_ops))

    for op in ops:  # warm-up, so neither timed pass pays first-call costs
        run_op(workload, op, workload.replay)
    untraced = sum(run_op(workload, op, workload.replay)[0] for op in ops)
    tally, traced = Tally(), 0.0
    with tracing.installed(tracer):
        for i, op in enumerate(ops):
            tracer.op_id = i
            with tracer.span(f"op.{op.kind}"):
                elapsed, _, verdict = run_op(workload, op, workload.replay)
            traced += elapsed
            tally.add(op, verdict)
    tracer.op_id = -1
    tracer.write(spans_path)

    interp, imports = [], []
    for _ in range(PROBE_PAIRS):
        interp.append(interp_ms())
        imports.append(interp_ms("import skelkit.cli"))
    values = {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports) - statistics.median(interp),
        "complexes.build_ms": tracer.layer_seconds[("setup", "complexes")] * 1000,
        "trace.ops_per_s": len(ops) / traced,
        "trace.untraced_ops_per_s": len(ops) / untraced,
        "trace.overhead_ratio": traced / untraced,
        **growth.exponents(sk),
    }
    for (phase, name), (calls, self_s) in tracer.stats.items():
        if phase == "ops":
            values[f"{name}.calls"] = calls
            values[f"{name}.self_ms"] = self_s * 1000
    for (phase, key), amount in tracer.counters.items():
        if phase == "ops":
            values[key] = amount
    calls = values.get("model.is_face.calls", 0)
    values["model.is_face.true_ratio"] = values.pop("model.is_face.true", 0) / calls if calls else 0.0
    failed = sum(tally.failed.values())
    info = {"interp_ms": values["cli.interp_ms"], "spans": len(tracer.spans),
            "spans_dropped": tracer.dropped, "spans_file": spans_path,
            "fail_ratio": failed / len(ops), **tally.summary(), "probe": probe(workload)}
    values.update((k, v) for k, v in info["probe"].items() if isinstance(v, int))
    return values, len(ops), failed, failed == 0, info
