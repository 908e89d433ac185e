"""Sweep benchmark: a 64-config sweep over one trap-dense trace.

Times :func:`~repro.core.batchsim.simulate_sweep` over the paper's
Nginx workload (8.3 M events): 64 configs, one
:class:`~repro.core.simulator.TraceSimulator` each, all sharing the
trace's compiled episode (compilation is charged to every timed run).

The record goes to ``BENCH_simulator.json`` at the repo root: the
sweep's median wall time, its inter-quartile range, µs per config and
the host's core count.  The file also carries ``baseline_vector_wall_s``
and ``baseline_vector_iqr_s``: the same sweep timed (with
:func:`sweep_times`) on the code before the current simulator, whose
sweeps ran a separate replay clone, on the same host.  The full run
fails if the median is slower than that beyond the larger of the two
run-to-run spreads, and never rewrites those two fields.

``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` CI hook) shrinks the
sweep to a small synthetic trace, asserts its results ``==``
per-config :meth:`SuitSystem.run_profile`, and leaves the committed
JSON untouched.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import List

import pytest

from repro.core.batchsim import SweepConfig, simulate_sweep
from repro.core.params import default_params_for
from repro.core.suit import SuitSystem
from repro.hardware.models import cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.workloads.generator import generate_trace
from repro.workloads.network import NGINX_PROFILE
from repro.workloads.profile import WorkloadProfile

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: Timed repetitions of the full sweep (median and IQR are reported).
RUNS = 9

#: Dense enough (~hundreds of thousands of events) that bulk consume
#: and trap handling both get exercised.
_SMOKE_PROFILE = WorkloadProfile(
    name="smoke", suite="SPECint", n_instructions=50_000_000, ipc=1.2,
    efficient_occupancy=0.1, n_episodes=20, dense_gap=50,
    imul_density=0.1, opcode_mix={Opcode.VOR: 1.0})


def _configs(n_offsets: int, n_seeds: int):
    """fV and V sweeps across offsets x seeds (the bulk-consume paths)."""
    offsets = [-0.070 - 0.004 * i for i in range(n_offsets)]
    return [SweepConfig(strategy=s, voltage_offset=off, seed=seed)
            for s in ("fV", "V")
            for off in offsets
            for seed in range(n_seeds)]


def _iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def sweep_times(runs: int = RUNS):
    """(trace, wall seconds of each of *runs* 64-config Nginx sweeps),
    each run starting from an uncompiled episode."""
    cpu = cpu_c_xeon_4208()
    params = default_params_for(cpu.vendor)
    configs = _configs(8, 4)
    trace = generate_trace(NGINX_PROFILE, seed=0)
    times = []
    for _ in range(runs):
        trace._batchsim_episode = None
        start = time.perf_counter()
        simulate_sweep(cpu, NGINX_PROFILE, trace, configs, params=params)
        times.append(time.perf_counter() - start)
    return trace, times


@pytest.mark.skipif(not SMOKE, reason="smoke-only equivalence check")
def test_smoke_sweep_equals_run_profile():
    cpu = cpu_c_xeon_4208()
    trace = generate_trace(_SMOKE_PROFILE, seed=0)
    configs = _configs(2, 2) + [SweepConfig(strategy="e")]
    swept = simulate_sweep(cpu, _SMOKE_PROFILE, trace, configs)
    for config, result in zip(configs, swept):
        suit = SuitSystem(cpu=cpu, strategy_name=config.strategy,
                          voltage_offset=config.voltage_offset,
                          seed=config.seed)
        suit.prime_trace(_SMOKE_PROFILE, trace)
        assert result == suit.run_profile(_SMOKE_PROFILE)


@pytest.mark.skipif(SMOKE, reason="timing is full-mode only")
def test_sweep_no_slower_than_baseline():
    trace, times = sweep_times()
    record = json.loads(BENCH_PATH.read_text())
    wall_s = statistics.median(times)
    iqr_s = _iqr(times)
    n_configs = len(_configs(8, 4))
    assert n_configs == 64
    record.update({
        "benchmark": "sweep",
        "workload": NGINX_PROFILE.name,
        "n_events": int(trace.n_events),
        "n_configs": n_configs,
        "nproc": os.cpu_count(),
        "runs": len(times),
        "wall_s": round(wall_s, 4),
        "iqr_s": round(iqr_s, 4),
        "us_per_config": round(wall_s / n_configs * 1e6, 1),
    })
    print(json.dumps(record, indent=2))
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    spread = max(iqr_s, record["baseline_vector_iqr_s"])
    assert wall_s <= record["baseline_vector_wall_s"] + spread, (
        f"sweep median {wall_s:.3f} s is slower than the baseline's "
        f"{record['baseline_vector_wall_s']:.3f} s beyond the {spread:.3f} s spread")


@pytest.mark.skipif(SMOKE, reason="store fan-out timing is full-mode only")
def test_shared_store_attach_beats_regeneration():
    """Attaching a published trace must be far cheaper than
    re-synthesising it — the point of the zero-copy store."""
    from repro.workloads.tracestore import SharedTraceStore

    store = SharedTraceStore.create("bench")
    try:
        start = time.perf_counter()
        trace = generate_trace(NGINX_PROFILE, seed=0)
        generate_s = time.perf_counter() - start

        store.publish("bench-key", trace)
        store._traces.clear()  # force a true re-attach, not the cache
        start = time.perf_counter()
        attached = store.get("bench-key")
        attach_s = time.perf_counter() - start

        assert attached is not None
        assert attached.n_events == trace.n_events
        assert attach_s < generate_s / 10
        print(f"generate {generate_s * 1e3:.1f} ms vs "
              f"attach {attach_s * 1e3:.3f} ms")
    finally:
        store.cleanup()
