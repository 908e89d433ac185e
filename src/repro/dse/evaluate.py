"""Genome evaluation: batched, deduplicated, optionally distributed.

One generation of genomes becomes a handful of ``simulate_sweep``
calls: genomes canonicalize to :class:`~repro.dse.objectives.SimJob`
identities, unique jobs group by deadline (one
:class:`~repro.core.params.StrategyParams` per sweep call) and each
group replays the shared compiled trace episode through
:mod:`repro.core.batchsim` — never one scalar run per genome.  Jobs
seen in an earlier generation are memo hits; an optional on-disk
:class:`~repro.runtime.cache.ResultCache` extends the memo across
processes and searches, keyed by
:func:`~repro.runtime.cache.domain_cache_key`.

Two backends share that contract:

* :class:`LocalEvalBackend` — in-process, with optional ``--jobs``
  process-pool fan-out over deadline groups.  Every simulation payload
  is a pure function of the job identity and the search seed, so
  serial and pooled runs are byte-identical.
* :class:`ServiceEvalBackend` — ships each missing job as one
  :class:`~repro.service.request.SimRequest` (carrying the new
  ``deadline_us`` / ``imul_extra_cycles`` fields) to a running
  simulation service or fleet gateway; the worker tier reproduces the
  local semantics bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.dse.objectives import (SimJob, objective_vector,
                                  security_headroom_mv, violation_mv)
from repro.dse.space import DseSpec, Genome
from repro.hardware.models import ALL_CPU_FACTORIES
from repro.runtime.cache import ResultCache, domain_cache_key, package_digest
from repro.runtime.study import fan_out

#: Cache-key domain for DSE simulation payloads.
CACHE_DOMAIN = "repro.dse.sim.v1"

#: Simulation-payload fields persisted in checkpoints and caches.
_SIM_FIELDS = ("duration_s", "baseline_duration_s", "energy_rel",
               "n_exceptions", "n_switches", "n_timer_fires", "path")


def _sim_payload(result, path: str) -> dict:
    """Reduce a :class:`~repro.core.metrics.SimResult` to the stable
    payload stored in checkpoints, memos and caches."""
    return {
        "duration_s": float(result.duration_s),
        "baseline_duration_s": float(result.baseline_duration_s),
        "energy_rel": float(result.energy_rel),
        "n_exceptions": int(result.n_exceptions),
        "n_switches": int(result.n_switches),
        "n_timer_fires": int(result.n_timer_fires),
        "path": path,
    }


def evaluate_job_group(spec: DseSpec, jobs: Sequence[SimJob]) -> Dict[str, dict]:
    """Simulate one same-deadline job group through ``simulate_sweep``.

    All jobs must share ``deadline_us`` (one parameter set per sweep
    call).  Jobs become :class:`~repro.core.batchsim.SweepConfig`
    entries over the shared trace — ``harden_imul=False`` plus an
    explicit post-applied tax, so the IMUL-latency gene is honoured for
    any depth while ``extra_cycles == 1`` stays bit-equal to the
    simulator's built-in hardening.  Returns payloads keyed by job key.
    """
    from repro.core.batchsim import SweepConfig, simulate_sweep
    from repro.core.metrics import apply_imul_tax
    from repro.core.params import default_params_for
    from repro.workloads import resolve_profile
    from repro.workloads.tracecache import cached_trace

    if not jobs:
        return {}
    deadlines = {job.deadline_us for job in jobs}
    if len(deadlines) != 1:
        raise ValueError(f"a job group shares one deadline; got "
                         f"{sorted(deadlines)}")
    cpu = ALL_CPU_FACTORIES[spec.cpu]()
    profile = resolve_profile(spec.workload)
    trace = cached_trace(profile, spec.seed)
    params = replace(default_params_for(cpu.vendor),
                     deadline_s=jobs[0].deadline_us * 1e-6)
    configs = [SweepConfig(strategy=job.strategy,
                           voltage_offset=job.voltage_offset,
                           seed=spec.seed, harden_imul=False)
               for job in jobs]
    results = simulate_sweep(cpu, profile, trace, configs,
                             params=params, n_cores=spec.n_cores)
    payloads: Dict[str, dict] = {}
    for job, result in zip(jobs, results):
        if job.strategy == "e":
            # The closed-form estimate already carries the paper's
            # +1-cycle hardening (and canonical 'e' genomes pin the
            # latency gene to exactly that).
            path = "estimate"
        else:
            path = "vector"
            if job.imul_extra_cycles > 0:
                result = apply_imul_tax(result, profile,
                                        job.imul_extra_cycles)
        payloads[job.key()] = _sim_payload(result, path)
    return payloads


def _pool_eval_group(spec_json: str, jobs_json: str) -> Dict[str, dict]:
    """Task function: rebuild spec and jobs from JSON (so the task
    payload is picklable and version-stable) and evaluate."""
    spec = DseSpec.from_json_dict(json.loads(spec_json))
    jobs = [SimJob.from_json_dict(j) for j in json.loads(jobs_json)]
    return evaluate_job_group(spec, jobs)


def build_record(spec: DseSpec, cpu, genome: Genome, sim: dict) -> dict:
    """The full evaluation record of one genome.

    A pure function of (spec, genome, simulation payload): resumed,
    pooled and serial runs all rebuild identical records from the same
    inputs, which is what makes ``dse_report.json`` byte-stable.
    """
    canon = genome.canonical()
    headroom = security_headroom_mv(cpu, canon, n_cores=spec.n_cores)
    objectives = objective_vector(sim, headroom)
    duration_ratio, energy_ratio, _ = objectives
    power_ratio = sim["energy_rel"] / sim["duration_s"]
    return {
        "genome": canon.to_json_dict(),
        "key": genome.canonical_key(),
        "sim_key": SimJob.from_genome(spec, genome).key(),
        "objectives": list(objectives),
        "duration_ratio": duration_ratio,
        "energy_ratio": energy_ratio,
        "headroom_mv": headroom,
        "violation_mv": violation_mv(headroom, spec.security_floor_mv),
        "perf_change_pct": (1.0 / duration_ratio - 1.0) * 100.0,
        "power_change_pct": (power_ratio - 1.0) * 100.0,
        "efficiency_change_pct":
            (1.0 / (duration_ratio * power_ratio) - 1.0) * 100.0,
        "n_exceptions": sim["n_exceptions"],
        "path": sim["path"],
    }


class _EvalBackend:
    """What both backends share: the simulation memo, its hit counters
    and the per-generation flow — dedupe genomes into un-memoized jobs
    (in key order), ``_simulate`` them, build every genome's record."""

    def __init__(self, spec: DseSpec) -> None:
        self.spec = spec
        self.cpu = ALL_CPU_FACTORIES[spec.cpu]()
        self.sims: Dict[str, dict] = {}
        self.memo_hits = 0
        self.cache_hits = 0

    def _cached(self, job: SimJob) -> bool:
        """Fill :attr:`sims` for *job* from a cache, if there is one."""
        return False

    def evaluate(self, genomes: Sequence[Genome]) -> List[dict]:
        """Evaluation records for *genomes*, in input order."""
        unique: Dict[str, SimJob] = {}
        for genome in genomes:
            job = SimJob.from_genome(self.spec, genome)
            key = job.key()
            if key in self.sims:
                self.memo_hits += 1
            elif key not in unique and not self._cached(job):
                unique[key] = job
        self._simulate([unique[key] for key in sorted(unique)])
        return [build_record(self.spec, self.cpu, genome,
                             self.sims[SimJob.from_genome(self.spec,
                                                          genome).key()])
                for genome in genomes]


class LocalEvalBackend(_EvalBackend):
    """Evaluates genomes in-process (optionally over a process pool).

    Args:
        spec: the search being evaluated.
        jobs: worker processes for deadline groups; 1 runs inline.
        cache: optional on-disk result cache consulted (and filled)
            per simulation job.

    Attributes:
        sims: every simulation payload computed so far, keyed by job
            key — the runner persists this table into ``dse.ckpt.json``
            and re-seeds it on resume.
        memo_hits: job lookups answered from :attr:`sims`.
        cache_hits: job lookups answered from the on-disk cache.
    """

    def __init__(self, spec: DseSpec, jobs: int = 1,
                 cache: Optional[ResultCache] = None) -> None:
        """See class docstring."""
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        super().__init__(spec)
        self.jobs = jobs
        self.cache = cache

    def _cache_key(self, job: SimJob) -> str:
        """On-disk cache key of *job* under this search's trace seed."""
        return domain_cache_key(
            domain=CACHE_DOMAIN,
            payload={"job": job.to_json_dict(), "seed": self.spec.seed},
            package_digest=package_digest())

    def _cached(self, job: SimJob) -> bool:
        if self.cache is None:
            return False
        hit = self.cache.get(self._cache_key(job))
        if hit is None or not all(f in hit for f in _SIM_FIELDS):
            return False
        self.sims[job.key()] = {f: hit[f] for f in _SIM_FIELDS}
        self.cache_hits += 1
        return True

    def _simulate(self, jobs: List[SimJob]) -> None:
        """One pooled task per deadline group; fill the disk cache."""
        groups: Dict[float, List[SimJob]] = {}
        for job in jobs:
            groups.setdefault(job.deadline_us, []).append(job)
        spec_json = json.dumps(self.spec.to_json_dict())
        tasks = [(spec_json,
                  json.dumps([j.to_json_dict() for j in groups[deadline]]))
                 for deadline in sorted(groups)]
        for _, payloads in fan_out(_pool_eval_group, tasks, self.jobs):
            self.sims.update(payloads)  # groups hold disjoint job keys
        if self.cache is not None:
            for job in jobs:
                self.cache.put(self._cache_key(job), self.sims[job.key()])


class ServiceEvalBackend(_EvalBackend):
    """Evaluates genomes through a running simulation service or fleet.

    Each missing job becomes one :class:`~repro.service.request.SimRequest`
    carrying the search's seed plus the job's ``deadline_us`` and
    ``imul_extra_cycles``; the worker tier groups same-trace requests
    into vectorized sweeps on its side, so a generation still batches.
    :meth:`evaluate` raises RuntimeError when the service fails any
    request — a DSE with silently missing evaluations would quietly
    explore a different space.

    Args:
        spec: the search being evaluated.
        host: service or gateway host.
        port: service or gateway port.
        timeout_s: overall bound per generation exchange.
    """

    def __init__(self, spec: DseSpec, host: str = "127.0.0.1",
                 port: int = 8642,
                 timeout_s: Optional[float] = None) -> None:
        """See class docstring."""
        super().__init__(spec)
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def _request_for(self, job: SimJob):
        """The wire request evaluating *job*."""
        from repro.service.request import SimRequest

        return SimRequest(
            cpu=job.cpu, workload=job.workload, strategy=job.strategy,
            voltage_offset=job.voltage_offset, seed=self.spec.seed,
            n_cores=job.n_cores, deadline_us=job.deadline_us,
            imul_extra_cycles=job.imul_extra_cycles)

    def _simulate(self, jobs: List[SimJob]) -> None:
        """One request per job, in one exchange."""
        from repro.service.client import request_simulations

        if not jobs:
            return
        responses = request_simulations(
            [self._request_for(job) for job in jobs],
            host=self.host, port=self.port, timeout_s=self.timeout_s)
        for job, response in zip(jobs, responses):
            if not response.ok or not isinstance(response.payload, dict):
                raise RuntimeError(
                    f"service failed job {job.key()[:12]} "
                    f"({job.strategy}@{job.offset_mv:g}mV): "
                    f"{response.status}: {response.error}")
            payload = dict(response.payload)
            payload["path"] = "service"
            self.sims[job.key()] = {f: payload[f] for f in _SIM_FIELDS}
