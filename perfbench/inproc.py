"""The reproduce_fast workload, run in a fresh interpreter.

``python perfbench/inproc.py --seed N --out result.json`` runs the
41-experiment fast reproduction, checks its outputs and writes what it
measured to *result.json*; :mod:`run` turns that into metrics.  A fresh
process per measurement keeps every run cold in the same way (no trace,
episode or system cache left over from an earlier pass), which is also
how users run ``runall``.

``--setup-only`` imports the engine and every experiment module, then
exits: what a cold ``runall`` start costs before its first experiment.
``--trace-out PATH`` records layer spans (see :mod:`spans`) and writes
them to *PATH*.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time

#: Wall budget for re-running the cheapest experiments of a reproduce
#: pass at a non-golden seed, to check that they repeat byte for byte.
REPEAT_CHECK_BUDGET_S = 3.0
#: Evaluation paths of ``simulate_sweep`` configs.
PATHS = ("vector", "scalar", "estimate")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _experiment_modules():
    """Import the engine and every registered experiment module."""
    from repro.runtime.engine import DEFAULT_REGISTRY, ExperimentEngine

    engine = ExperimentEngine(jobs=1, cache=None)
    for name in engine.select():
        importlib.import_module(f"{DEFAULT_REGISTRY}.{name}")
    return engine


def _record_digest(record) -> str:
    return hashlib.sha256(json.dumps(
        record.canonical_dict(), sort_keys=True,
        separators=(",", ":")).encode("utf-8")).hexdigest()


def reproduce(args, recorder) -> dict:
    """Full fast-mode runs of all experiments, serially, uncached."""
    from repro.runtime.goldens import GOLDEN_BASE_SEED, check_report
    from repro.workloads.tracecache import clear_trace_cache

    engine = _experiment_modules()
    if recorder is not None:
        from spans import install
        install(recorder)
    passes, reports = [], []
    before = batchsim_paths()
    started = time.perf_counter()
    while True:
        clear_trace_cache()
        t0 = time.perf_counter()
        report = engine.run(seed=args.seed, fast=True)
        passes.append(time.perf_counter() - t0)
        reports.append(report)
        # Whole passes until --seconds, at least one.
        if time.perf_counter() - started >= args.seconds:
            break
    measured_s = time.perf_counter() - started
    after = batchsim_paths()
    problems = []
    report = reports[0]
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    for other in reports[1:]:
        if hashlib.sha256(other.canonical_json().encode()).hexdigest() \
                != digest:
            problems.append("canonical report differs between passes")
    failed_modules = {r.module for rep in reports for r in rep.records
                      if not r.ok}
    problems += [f"{m}: experiment failed" for m in sorted(failed_modules)]
    wrong_modules = set()
    if args.seed == GOLDEN_BASE_SEED:
        for violation in check_report(report):
            wrong_modules.add(violation.split(".", 1)[0].split(":", 1)[0])
            problems.append(f"golden drift: {violation}")
    elif not args.skip_repeat_check:
        # Re-run the cheapest experiments at the same seed (on the
        # traces the pass left cached): each must reproduce its
        # canonical record exactly.
        cheap, spent = [], 0.0
        for record in sorted(report.records, key=lambda r: r.wall_time_s):
            spent += record.wall_time_s
            if spent > REPEAT_CHECK_BUDGET_S:
                break
            cheap.append(record.module)
        again = engine.run(seed=args.seed, fast=True, only=cheap)
        first = {r.module: _record_digest(r) for r in report.records}
        for record in again.records:
            if _record_digest(record) != first[record.module]:
                wrong_modules.add(record.module)
                problems.append(f"{record.module}: not repeatable")
    n_experiments = sum(len(rep.records) for rep in reports)
    return {
        "unit_latencies_s": passes,
        "units": len(passes),
        "measured_s": measured_s,
        "attempted": n_experiments,
        "failed": sum(1 for rep in reports for r in rep.records
                      if not r.ok or r.module in wrong_modules),
        "problems": problems,
        "window": [started, started + measured_s],
        "digest": digest,
        "record_digests": {r.module: _record_digest(r)
                           for r in report.records},
        "engine_s": {r.module: r.wall_time_s for r in report.records},
        "batchsim_paths": {p: after[p] - before[p] for p in PATHS},
    }


def batchsim_paths() -> dict:
    """Sweep configs so far by evaluation path, as the program counts
    them."""
    from repro.obs import get_registry

    metric = get_registry().get("batchsim_configs_total")
    series = metric.series() if metric is not None else {}
    return {path: series.get((path,), 0) for path in PATHS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--skip-repeat-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.setup_only:
        _experiment_modules()
        return 0
    recorder = None
    if args.trace_out:
        from spans import SpanRecorder
        recorder = SpanRecorder()
    result = reproduce(args, recorder)
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        recorder.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
