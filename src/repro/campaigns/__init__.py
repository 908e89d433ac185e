"""Structured fault-injection campaigns against the modeled machine.

DAVOS-style statistical fault injection for the SUIT reproduction: a
declarative :class:`FaultloadSpec` expands deterministically into
per-run injection plans, a :class:`CampaignRunner` executes the sample
matrix with crash isolation and checkpoint/resume, every run is
classified against its own unfaulted golden baseline
(masked / degraded / sdc / detected / crashed), and a
:class:`ReportBuilder` renders the standalone HTML dashboard.

See ``docs/campaigns.md`` for the spec format, outcome taxonomy and
checkpoint semantics, or start with a canned campaign::

    python -m repro campaign run --spec msr_bitflip_nginx --out out/
"""

from repro.campaigns.classify import (OUTCOMES, classify_pair, classify_run,
                                      tally)
from repro.campaigns.plan import Injection, RunPlan, expand, run_seed
from repro.campaigns.report import ReportBuilder
from repro.campaigns.run import execute_run
from repro.campaigns.runner import (CampaignRunner, CKPT_NAME, HTML_NAME,
                                    REPORT_NAME, load_checkpoint_spec)
from repro.campaigns.spec import (CANNED_CAMPAIGNS, FaultloadSpec,
                                  canned_campaign, load_spec, resolve_spec)
from repro.runtime.study import CheckpointMismatchError

__all__ = [
    "CANNED_CAMPAIGNS",
    "CKPT_NAME",
    "CampaignRunner",
    "CheckpointMismatchError",
    "FaultloadSpec",
    "HTML_NAME",
    "Injection",
    "OUTCOMES",
    "REPORT_NAME",
    "ReportBuilder",
    "RunPlan",
    "canned_campaign",
    "classify_pair",
    "classify_run",
    "execute_run",
    "expand",
    "load_checkpoint_spec",
    "load_spec",
    "resolve_spec",
    "run_seed",
    "tally",
]
