"""Campaign execution: the sample matrix, crash-isolated and resumable.

:class:`CampaignRunner` is a :class:`~repro.runtime.study.Study`: a
never-raising worker function fanned out serially or over a process
pool (:func:`~repro.runtime.study.fan_out`), and results keyed by a
deterministic plan so order of completion never matters.  Its
``campaign.ckpt.json`` checkpoint is atomically rewritten after every
completed run, so a campaign killed at any point resumes with
``run(resume=True)`` and produces the byte-identical final report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaigns.classify import OUTCOMES, classify_run, tally
from repro.campaigns.plan import RunPlan, expand
from repro.campaigns.run import execute_run
from repro.campaigns.spec import FaultloadSpec
from repro.obs import get_registry
from repro.runtime.study import HTML_NAME  # noqa: F401 - re-exported
from repro.runtime.study import Study, fan_out

#: Schema tags; bump on layout changes so stale artifacts fail loudly.
CKPT_SCHEMA = "repro.campaign-checkpoint.v1"
REPORT_SCHEMA = "repro.campaign-report.v1"

CKPT_NAME = "campaign.ckpt.json"
REPORT_NAME = "campaign_report.json"


def _runs_counter():
    return get_registry().counter(
        "campaign_runs_total",
        "Campaign runs executed, by classified outcome.",
        label_names=("outcome",))


def _worker_execute(spec_json: str, plan_json: str) -> dict:
    """Task function: rebuild the dataclasses from JSON (so the task
    payload is picklable and version-stable) and execute.  Never
    raises — :func:`execute_run` already folds failures into a
    ``crashed`` outcome dict."""
    spec = FaultloadSpec.from_json_dict(json.loads(spec_json))
    plan = RunPlan.from_json_dict(json.loads(plan_json))
    return execute_run(spec, plan)


def load_checkpoint_spec(out_dir: Path) -> FaultloadSpec:
    """The faultload recorded in *out_dir*'s checkpoint — lets
    ``campaign resume --out DIR`` continue without re-passing the spec."""
    return CampaignRunner.load_checkpoint_spec(out_dir)


class CampaignRunner(Study):
    """Executes one faultload's sample matrix.

    Args:
        spec: the campaign faultload.
        out_dir: artifact directory (checkpoint, report, HTML).  None
            runs fully in memory (no checkpoint, no resume).
        jobs: worker processes; 1 executes inline in this process.
    """

    CKPT_NAME = CKPT_NAME
    CKPT_SCHEMA = CKPT_SCHEMA
    REPORT_NAME = REPORT_NAME
    SPEC_TYPE = FaultloadSpec
    KIND = "campaign"
    SPEC_NOUN = "faultload"

    def __init__(self, spec: FaultloadSpec, out_dir: Optional[Path] = None,
                 jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        super().__init__(spec, out_dir)
        self.jobs = jobs
        self.plans: List[RunPlan] = expand(spec)
        self.results: Dict[int, dict] = {}

    def _checkpoint_state(self) -> dict:
        return {"completed": {str(k): v
                              for k, v in sorted(self.results.items())}}

    def _restore(self, payload: dict) -> None:
        self.results = {int(k): v
                        for k, v in payload.get("completed", {}).items()}

    # -- execution -------------------------------------------------------

    def run(self, resume: bool = False, stop_after: Optional[int] = None) -> dict:
        """Execute every (remaining) run; return the report dict.

        Args:
            resume: load ``campaign.ckpt.json`` first and skip completed
                runs.  Refuses a checkpoint from a different spec.
            stop_after: stop once this many *new* runs completed (used
                by tests to simulate an interrupted campaign); the
                checkpoint stays on disk for a later resume.
        """
        self._start(resume)
        pending = [p for p in self.plans if p.index not in self.results]
        if stop_after is not None:
            pending = pending[:max(0, stop_after)]

        def lost(i: int, exc: Exception) -> dict:
            plan = pending[i]
            return {"index": plan.index, "offset_v": plan.offset_v,
                    "seed": plan.seed, "status": "crashed",
                    "error": f"worker died: {exc!r}",
                    "baseline": None, "faulted": None, "notes": []}

        counter = _runs_counter()
        spec_json = self.spec.canonical_json()
        tasks = [(spec_json, json.dumps(plan.to_json_dict()))
                 for plan in pending]
        for i, outcome in fan_out(_worker_execute, tasks, self.jobs,
                                  on_lost=lost):
            plan = pending[i]
            outcome["outcome"] = classify_run(outcome)
            outcome["injections"] = [j.to_json_dict()
                                     for j in plan.injections]
            counter.inc(outcome=outcome["outcome"])
            self.results[plan.index] = outcome
            self._save_checkpoint()
        return self.build_report()

    # -- reporting -------------------------------------------------------

    def build_report(self) -> dict:
        """The deterministic campaign report (no timestamps, no paths:
        a pure function of spec + completed results)."""
        missing = [p.index for p in self.plans if p.index not in self.results]
        runs = []
        for plan in self.plans:
            outcome = self.results.get(plan.index)
            if outcome is None:
                continue
            runs.append({
                "index": plan.index,
                "offset_mv": round(plan.offset_v * 1e3, 3),
                "seed": plan.seed,
                "outcome": outcome["outcome"],
                "injections": [i.describe() for i in plan.injections],
                "error": outcome.get("error"),
            })

        by_offset = []
        for offset in self.spec.offsets_v:
            labels = [r["outcome"] for r in runs
                      if r["offset_mv"] == round(offset * 1e3, 3)]
            counts = tally(labels)
            n = max(1, len(labels))
            by_offset.append({
                "offset_mv": round(offset * 1e3, 3),
                "n": len(labels),
                "counts": counts,
                "sdc_rate": round(counts["sdc"] / n, 6),
                "detected_rate": round(counts["detected"] / n, 6),
                "crashed_rate": round(counts["crashed"] / n, 6),
            })

        by_target: Dict[str, Dict[str, int]] = {}
        for plan in self.plans:
            outcome = self.results.get(plan.index)
            if outcome is None:
                continue
            for injection in plan.injections:
                row = by_target.setdefault(
                    injection.target, {name: 0 for name in OUTCOMES})
                row[outcome["outcome"]] += 1

        return {
            "schema": REPORT_SCHEMA,
            "campaign": self.spec.name,
            "spec": self.spec.to_json_dict(),
            "spec_digest": self.spec.digest(),
            "n_runs": self.spec.n_runs,
            "n_completed": len(runs),
            "incomplete": sorted(missing),
            "outcomes": tally(r["outcome"] for r in runs),
            "by_offset": by_offset,
            "by_target": {k: by_target[k] for k in sorted(by_target)},
            "runs": runs,
        }

    @staticmethod
    def render_html(report: dict) -> str:
        """The standalone campaign dashboard of *report*."""
        from repro.campaigns.report import ReportBuilder

        return ReportBuilder(report).render()
