"""Self-tests of the benchmark harness (run with pytest from the repository root)."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import skelkit as sk  # noqa: E402
import skelkit.cli  # noqa: E402,F401  imported before tracing, as the traced run does

import harness  # noqa: E402
import tracing  # noqa: E402
from cli_corpus import CliCorpus  # noqa: E402
from reduce_chain import ReduceChain  # noqa: E402
from skeleton_scan import SkeletonScan  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: together they cover [1, 6]
        ("leaf", 2.0, 3.5, 1, 0),
        ("a", 7.0, 8.0, 0, 0),
        ("c", 9.5, 12.0, 0, 0),  # runs past its parent; only [9.5, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"root": 10 - 5 - 1 - 0.5, "a": 3 - 1.5 + 1, "b": 3, "leaf": 1.5, "c": 2.5})


def test_online_self_times_match_the_recorded_spans():
    tracer = tracing.Tracer()
    workload = _ready(ReduceChain, 5)
    short = [op for op in itertools.islice(workload.ops(), 20) if op.expect[0] <= 40]
    with tracing.installed(tracer):
        for i, op in enumerate(short):
            tracer.op_id = i
            workload.call(op)
    assert tracer.dropped == 0
    offline = tracing.self_times(tracer.spans)
    for (phase, name), (_, self_s) in tracer.stats.items():
        if phase == "ops":
            assert self_s == pytest.approx(offline[name], rel=1e-6, abs=1e-9)


def _bindings():
    return {(mod.__name__, attr): obj for mod in tracing.package_modules()
            for attr, obj in vars(mod).items() if callable(obj)}


def test_every_rebound_function_is_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert sk.validate is not before[("skelkit", "validate")]
        assert sk.model.cofaces is not before[("skelkit.model", "cofaces")]
        workload = _ready(SkeletonScan, 1)
        for op in itertools.islice(workload.ops(), 6):
            assert workload.check(op, workload.call(op)) is None
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.stats  # the wrappers did run


def test_a_seed_repeats_its_operations_and_call_counts(tmp_path):
    for cls in (CliCorpus, ReduceChain, SkeletonScan):
        first = list(itertools.islice(_ready(cls, 9, tmp_path).ops(), 30))
        second = list(itertools.islice(_ready(cls, 9, tmp_path).ops(), 30))
        assert first == second
        assert _counts(cls, 9, tmp_path) == _counts(cls, 9, tmp_path)


def test_the_probe_runs_every_mutation_with_every_command(tmp_path):
    workload = _ready(CliCorpus, 3, tmp_path)
    kinds = [op.kind for op in workload.mutant_ops()]
    assert len(set(kinds)) == len(kinds) == 3 * 15  # every (mutation, command variant) pairing
    assert all(op.args[1].endswith(op.kind.partition(":")[0] + ".model") for op in workload.mutant_ops())


def test_every_generated_model_validates():
    for cls in (ReduceChain, SkeletonScan):
        for model in _ready(cls, 4).generated_models():
            assert sk.validate(model).ok
    scan = _ready(SkeletonScan, 4)
    for op in itertools.islice(scan.ops(), 50):
        if op.kind.startswith("essential:"):
            name, forms = op.args
            for form in forms:
                sk.apply_form(scan.models[name], form)  # raises unless the result validates


def _ready(cls, seed, workdir=None):
    workload = cls(ROOT, seed, workdir)
    workload.setup(sk)
    workload.prepare()
    return workload


def _counts(cls, seed, workdir):
    """calls per traced function over the first operations of a fresh workload."""
    tracer = tracing.Tracer()
    workload = _ready(cls, seed, workdir)
    with tracing.installed(tracer):
        for op in itertools.islice(workload.ops(), 12):
            harness.run_op(workload, op, workload.replay)
    return {name: stat[0] for (_, name), stat in tracer.stats.items()}, dict(tracer.counters)
