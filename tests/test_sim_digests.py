"""Frozen simulator results: every ``SimResult`` field over a fixed grid.

``tests/fixtures/sim_digests.json`` pins what the trace simulator
returns, bit for bit, over a grid of CPUs, core counts, strategies,
offsets, seeds, IMUL hardening and workloads, plus one timeline run and
one traced run.  Any change to the state machine, its RNG draw order or
its floating-point expression order shows up here as a changed digest.

Regenerate (only for an intended change of simulator results)::

    PYTHONPATH=src python -m tests.test_sim_digests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.multicore import merged_multicore_trace
from repro.core.params import default_params_for
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.core.suit import SuitSystem
from repro.hardware.models import ALL_CPU_FACTORIES
from repro.isa.opcodes import Opcode
from repro.obs.tracer import TRACK_SIM, disable_tracing, enable_tracing
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.spec import spec_profile

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "sim_digests.json"

#: A small synthetic profile with real burst structure.
GEN_PROFILE = WorkloadProfile(
    name="gen", suite="SPECint", n_instructions=2_000_000, ipc=1.2,
    efficient_occupancy=0.4, n_episodes=3, dense_gap=400,
    imul_density=0.1, opcode_mix={Opcode.VOR: 0.5, Opcode.VPCMP: 0.5})

#: (CPU, active cores): CPU A twice so the merged trace is covered.
CPU_SETTINGS = (("A", 1), ("A", 4), ("B", 1), ("C", 1))
SWEPT = ("fV", "f", "V")
OFFSETS = (-0.05, -0.07, -0.097, -0.12)
SEEDS = (0, 1, 2)
HARDEN = (True, False)


def profiles() -> List[WorkloadProfile]:
    """The generated profile and two cheap fast-mode SPEC workloads."""
    return [GEN_PROFILE, spec_profile("557.xz"),
            spec_profile("549.fotonik3d")]


def canonical(value):
    """JSON-ready form with every float written via ``float.hex``."""
    if dataclasses.is_dataclass(value):
        return [[f.name, canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)]
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return [[k, canonical(value[k])] for k in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value) -> str:
    """sha256 of the canonical JSON form of *value*."""
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(fn):
    """*fn*'s result, or the error it raised (CPU B has no voltage
    rail, so V and fV fail there)."""
    try:
        return fn()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _configs(strategy: str) -> List[SweepConfig]:
    return [SweepConfig(strategy=strategy, voltage_offset=off, seed=seed,
                        harden_imul=harden)
            for off in OFFSETS for seed in SEEDS for harden in HARDEN]


def compute() -> Dict[str, str]:
    """Digest of every grid group, the timeline run and the traced run.

    Each ``<cpu><cores>/<workload>/<strategy>`` group hashes the results
    of :data:`OFFSETS` x :data:`SEEDS` x :data:`HARDEN` in that order.
    ``fV``, ``f`` and ``V`` go through one :func:`simulate_sweep` call;
    ``e`` is *simulated* event by event (not the closed-form estimate)
    on the same trace the sweep simulates.
    """
    out: Dict[str, str] = {}
    traces = {p.name: (p, generate_trace(p, seed=0)) for p in profiles()}
    for cpu_name, n_cores in CPU_SETTINGS:
        cpu = ALL_CPU_FACTORIES[cpu_name]()
        params = default_params_for(cpu.vendor)
        for name, (profile, trace) in traces.items():
            key = f"{cpu_name}{n_cores}/{name}"
            for strategy in SWEPT:
                out[f"{key}/{strategy}"] = digest(_outcome(
                    lambda: simulate_sweep(cpu, profile, trace,
                                           _configs(strategy),
                                           params=params, n_cores=n_cores)))
            sim_trace = trace
            if n_cores > 1 and not cpu.topology.per_core_frequency:
                sim_trace = merged_multicore_trace(trace, n_cores)
            out[f"{key}/e"] = digest([
                TraceSimulator(cpu, profile, sim_trace,
                               strategy_for("e", params), c.voltage_offset,
                               seed=c.seed, harden_imul=c.harden_imul).run()
                for c in _configs("e")])

    profile, trace = traces[GEN_PROFILE.name]
    suit = SuitSystem.for_cpu("C", strategy_name="fV",
                              voltage_offset=-0.097, seed=0)
    out["timeline/C1/gen/fV"] = digest(
        suit.run_trace(profile, trace, record_timeline=True))

    cpu = ALL_CPU_FACTORIES["C"]()
    tracer = enable_tracing(capacity=1_000_000)
    try:
        results = simulate_sweep(cpu, profile, trace, [
            SweepConfig(strategy=s, voltage_offset=-0.097, seed=1)
            for s in ("fV", "V")])
        events = [(e.name, e.ts_us, e.dur_us, e.args)
                  for e in tracer.events() if e.pid == TRACK_SIM]
    finally:
        disable_tracing()
    out["traced/C1/gen/fV+V"] = digest([results, events])
    return out


def test_simulator_results_match_frozen_digests():
    expected = json.loads(FIXTURE.read_text())
    got = compute()
    drifted = sorted(k for k in expected if got.get(k) != expected[k])
    assert not drifted, f"simulator results changed in: {drifted}"
    assert sorted(got) == sorted(expected)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
