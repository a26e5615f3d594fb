"""Run one skelkit benchmark workload and print its metrics.

    python3 bench/run.py --workload reduce_chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and the command line is started as ``python -m skelkit.cli``
with ``src`` on PYTHONPATH.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics.  The line before it is a
JSON record of the run (commit, Python, nproc, seed, bare-interpreter
time, per-kind operation and failure counts).  Files the run writes go
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import harness
from cli_corpus import CliCorpus
from reduce_chain import ReduceChain
from skeleton_scan import SkeletonScan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = {w.name: w for w in (CliCorpus, ReduceChain, SkeletonScan)}


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skelkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skelkit" / "__init__.py").is_file():
        print(f"run.py: no skelkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    workdir = OUT / f"work-{os.getpid()}"
    make = functools.partial(WORKLOADS[args.workload], ROOT, args.seed, workdir)
    try:
        if args.trace:
            spans = os.path.relpath(OUT / f"spans-{args.workload}-{args.seed}.json", ROOT)
            values, attempted, failed, correct, info = harness.traced_run(make(), spans)
            declared = spec["per_layer"]
        else:
            values, attempted, failed, correct, info = harness.timed_run(make, args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(), **info,
    }
    # a layer a workload never calls reads 0; every end-to-end metric must be measured
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
