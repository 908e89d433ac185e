"""Golden-value snapshots of every paper metric.

A golden file (``tests/goldens/<module>.json``) pins the fast-mode,
seed-derived value of every metric one experiment emits, together with
a per-metric tolerance.  The regression harness
(``tests/test_goldens.py``) re-runs each experiment and asserts

``abs(measured - golden) <= abs_tol + rel_tol * abs(golden)``

so any drift in the reproduced numbers — from a simulator change, a
calibration edit, a seeding change — fails the suite instead of
landing silently.

Workflow:

* regenerate after an intentional change::

      python -m repro.runtime.goldens --update [--jobs N] [--only mod ...]

  (per-metric tolerance overrides in existing files are preserved);
* verify outside pytest::

      python -m repro.runtime.goldens --check

Golden runs use fast mode and base seed 0; the stored ``seed`` field is
the derived per-experiment seed actually passed to ``run()``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.runtime.engine import EngineReport, ExperimentEngine, ExperimentRecord
from repro.runtime.study import atomic_write_json

#: Golden file schema version.
GOLDEN_SCHEMA_VERSION = 1

#: Environment variable overriding the golden directory.
GOLDENS_DIR_ENV = "REPRO_GOLDENS_DIR"

#: Default per-metric tolerances.  Fast-mode runs are deterministic for
#: a fixed seed, so these only need to absorb floating-point noise
#: across platforms/BLAS builds, not statistical variation.
DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-9

#: Base seed the golden snapshots are defined at.
GOLDEN_BASE_SEED = 0


def goldens_dir(directory: Optional[Path] = None) -> Path:
    """Resolve the golden directory (arg > env > ``<repo>/tests/goldens``)."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(GOLDENS_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def golden_path(module: str, directory: Optional[Path] = None) -> Path:
    """Path of the golden file for *module*."""
    return goldens_dir(directory) / f"{module}.json"


def load_golden(module: str, directory: Optional[Path] = None) -> dict:
    """Load and return the golden dict for *module* (FileNotFoundError if unpinned)."""
    with open(golden_path(module, directory), "r", encoding="utf-8") as handle:
        return json.load(handle)


def build_golden(record: ExperimentRecord,
                 previous: Optional[dict] = None) -> dict:
    """Golden dict for one successful engine record.

    Tolerances are the defaults unless *previous* (the existing golden
    file) carries per-metric overrides, which are preserved so a
    deliberately widened tolerance survives ``--update``.
    """
    if not record.ok or record.payload is None:
        raise ValueError(f"cannot snapshot failed experiment {record.module}")
    prev_metrics: Dict[str, dict] = {}
    if previous:
        prev_metrics = dict(previous.get("metrics", {}))
    metrics: Dict[str, dict] = {}
    for m in record.payload["metrics"]:
        prev = prev_metrics.get(m["name"], {})
        metrics[m["name"]] = {
            "measured": m["measured"],
            "paper": m["paper"],
            "unit": m["unit"],
            "rel_tol": prev.get("rel_tol", DEFAULT_REL_TOL),
            "abs_tol": prev.get("abs_tol", DEFAULT_ABS_TOL),
        }
    golden = {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "module": record.module,
        "experiment_id": record.payload["experiment_id"],
        "base_seed": GOLDEN_BASE_SEED,
        "seed": record.seed,
        "fast": True,
        "metrics": metrics,
    }
    if not metrics:
        # Metric-less experiments (pure table regenerations) are pinned
        # by an exact hash of their report lines instead.
        golden["lines_sha256"] = _lines_sha256(record.payload["lines"])
    return golden


def _lines_sha256(lines: Sequence[str]) -> str:
    """Exact-match digest of an experiment's report lines."""
    joined = "\n".join(str(line) for line in lines)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def compare_result(result: ExperimentResult, golden: dict) -> List[str]:
    """Diff *result* against *golden*; returns human-readable violations.

    Reports metrics missing from the result, metrics the golden does
    not pin (new experiments/metrics must be snapshotted), and values
    outside ``abs_tol + rel_tol * |golden|``.
    """
    violations: List[str] = []
    produced = {m.name: m for m in result.metrics}
    pinned = golden.get("metrics", {})
    if "lines_sha256" in golden:
        actual_hash = _lines_sha256(result.lines)
        if actual_hash != golden["lines_sha256"]:
            violations.append(
                f"lines: report rows changed (sha256 {actual_hash[:12]}... "
                f"!= golden {golden['lines_sha256'][:12]}...)")
    for name in sorted(set(pinned) - set(produced)):
        violations.append(f"{name}: pinned in golden but not produced")
    for name in sorted(set(produced) - set(pinned)):
        violations.append(f"{name}: produced but has no golden value "
                          "(run `python -m repro.runtime.goldens --update`)")
    for name in sorted(set(pinned) & set(produced)):
        entry = pinned[name]
        expected = float(entry["measured"])
        actual = float(produced[name].measured)
        allowed = (float(entry.get("abs_tol", DEFAULT_ABS_TOL))
                   + float(entry.get("rel_tol", DEFAULT_REL_TOL)) * abs(expected))
        if abs(actual - expected) > allowed:
            violations.append(
                f"{name}: measured {actual!r} drifted from golden "
                f"{expected!r} (|delta| {abs(actual - expected):.3g} > "
                f"allowed {allowed:.3g})")
    return violations


def write_goldens(report: EngineReport,
                  directory: Optional[Path] = None) -> List[Path]:
    """Write one golden file per successful record; returns the paths."""
    target = goldens_dir(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for record in report.records:
        if not record.ok:
            raise RuntimeError(
                f"refusing to update goldens: {record.module} failed:\n"
                f"{record.error}")
        path = golden_path(record.module, target)
        previous: Optional[dict] = None
        if path.exists():
            with open(path, "r", encoding="utf-8") as handle:
                previous = json.load(handle)
        atomic_write_json(path, build_golden(record, previous))
        written.append(path)
    return written


def check_report(report: EngineReport,
                 directory: Optional[Path] = None) -> List[str]:
    """Compare every record of *report* against its golden file."""
    violations: List[str] = []
    for record in report.records:
        if not record.ok:
            violations.append(f"{record.module}: experiment failed:\n"
                              f"{record.error}")
            continue
        try:
            golden = load_golden(record.module, directory)
        except FileNotFoundError:
            violations.append(f"{record.module}: no golden file "
                              "(run `python -m repro.runtime.goldens --update`)")
            continue
        violations.extend(f"{record.module}.{v}"
                          for v in compare_result(record.to_result(), golden))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.runtime.goldens`` entry point; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.goldens", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--update", action="store_true",
                        help="re-run the experiments and rewrite the goldens")
    action.add_argument("--check", action="store_true",
                        help="re-run the experiments and verify the goldens")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for the experiment runs")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiment module names")
    parser.add_argument("--dir", default=None,
                        help="golden directory (default: tests/goldens)")
    args = parser.parse_args(argv)

    engine = ExperimentEngine(jobs=args.jobs, cache=None)
    try:
        report = engine.run(seed=GOLDEN_BASE_SEED, fast=True, only=args.only)
    except ValueError as exc:
        parser.error(str(exc))
    directory = Path(args.dir) if args.dir else None
    if args.update:
        written = write_goldens(report, directory)
        print(f"wrote {len(written)} golden files to "
              f"{goldens_dir(directory)}")
        return 0
    violations = check_report(report, directory)
    for violation in violations:
        print(f"DRIFT {violation}")
    checked = len(report.records)
    if violations:
        print(f"{len(violations)} violation(s) across {checked} experiments")
        return 1
    print(f"all {checked} experiments match their goldens")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
