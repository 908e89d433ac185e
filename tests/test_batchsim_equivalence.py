"""Sweeps over a shared episode must be bit-identical to lone runs.

:func:`~repro.core.batchsim.simulate_sweep` runs every config through
:class:`~repro.core.simulator.TraceSimulator` over one trace, sharing
its compiled :class:`~repro.core.simulator.TraceEpisode` (and the
episode's per-threshold memo) between configs.  These tests check with
strict ``==`` comparisons (no approx) that nothing one config leaves in
that shared state changes another config's result:

* a hypothesis property suite over random traces (sparse events and
  dense bursts), strategies, deadlines, seeds and offsets, comparing a
  many-config sweep against one simulator per config on a fresh copy of
  the trace;
* synthesized workload traces through :func:`simulate_sweep` vs
  :meth:`SuitSystem.run_profile`;
* the sweep API contract: config-order results, the closed-form ``e``
  estimate, enclave rejection, agreement with lone scalar runs, traced
  sweeps, core-count validation and that a trace and its cached episode
  are freed by reference counting.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchsim import (
    SweepConfig,
    compile_episode,
    simulate_sweep,
)
from repro.core.estimates import emulation_estimate
from repro.core.params import StrategyParams, default_params_for
from repro.core.simulator import TraceSimulator
from repro.core.strategy import strategy_for
from repro.core.suit import SuitSystem
from repro.hardware.models import cpu_b_ryzen_7700x, cpu_c_xeon_4208
from repro.isa.opcodes import Opcode
from repro.obs.tracer import TRACK_SIM, disable_tracing, enable_tracing
from repro.workloads.generator import generate_trace
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import FaultableTrace

_CPU = cpu_c_xeon_4208()

_N = 20_000_000

_PROFILE = WorkloadProfile(
    name="prop", suite="SPECint", n_instructions=_N, ipc=1.5,
    efficient_occupancy=0.5, n_episodes=1, dense_gap=1000,
    imul_density=0.05, opcode_mix={Opcode.VOR: 0.6, Opcode.VPCMP: 0.4})

#: A small synthetic profile whose generated trace has real burst
#: structure but synthesises in milliseconds.
_GEN_PROFILE = WorkloadProfile(
    name="gen", suite="SPECint", n_instructions=2_000_000, ipc=1.2,
    efficient_occupancy=0.4, n_episodes=3, dense_gap=400,
    imul_density=0.1, opcode_mix={Opcode.VOR: 0.5, Opcode.VPCMP: 0.5})


def _make_trace(event_positions):
    indices = np.array(sorted(set(event_positions)), dtype=np.int64)
    opcodes = (indices % 2).astype(np.uint8)
    return FaultableTrace(
        name="prop", n_instructions=_N, ipc=1.5, indices=indices,
        opcodes=opcodes, opcode_table=(Opcode.VOR, Opcode.VPCMP))


def assert_identical(fast, scalar):
    """Bit-exact result comparison — any drift is a kernel bug."""
    assert fast.duration_s == scalar.duration_s
    assert fast.energy_rel == scalar.energy_rel
    assert fast.state_time == scalar.state_time
    assert fast.baseline_duration_s == scalar.baseline_duration_s
    assert fast.n_exceptions == scalar.n_exceptions
    assert fast.n_switches == scalar.n_switches
    assert fast.n_timer_fires == scalar.n_timer_fires
    assert fast.n_thrash_stretches == scalar.n_thrash_stretches
    assert fast.strategy == scalar.strategy
    assert fast.voltage_offset == scalar.voltage_offset


# Sparse singles plus dense bursts: bursts drive the deadline-timer /
# thrashing machinery, singles drive the bulk-consume galloping.
_singles = st.lists(st.integers(min_value=0, max_value=_N - 1),
                    min_size=0, max_size=30)
_bursts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=_N - 2000),
              st.integers(min_value=2, max_value=300)),
    min_size=0, max_size=4)


@st.composite
def event_sets(draw):
    events = list(draw(_singles))
    for start, length in draw(_bursts):
        events.extend(range(start, start + length))
    return events


def _lone_runs(cpu, trace_events, configs, params):
    """One simulator per config, each on a fresh copy of the trace (so
    each compiles its own episode)."""
    return [TraceSimulator(cpu, _PROFILE, _make_trace(trace_events),
                           strategy_for(c.strategy, params),
                           c.voltage_offset, seed=c.seed,
                           harden_imul=c.harden_imul).run()
            for c in configs]


_sweep_configs = st.lists(
    st.builds(SweepConfig,
              strategy=st.sampled_from(["fV", "f", "V"]),
              voltage_offset=st.sampled_from([-0.05, -0.097, -0.12]),
              seed=st.integers(min_value=0, max_value=7),
              harden_imul=st.booleans()),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(events=event_sets(), configs=_sweep_configs,
       deadline=st.sampled_from([10e-6, 30e-6, 100e-6, 450e-6]))
def test_replay_matches_scalar(events, configs, deadline):
    """A sweep shares one episode (and its per-threshold memo) across
    configs; each result must equal a lone run on a fresh trace."""
    params = StrategyParams(deadline, 450e-6, 3, 14.0)
    swept = simulate_sweep(_CPU, _PROFILE, _make_trace(events), configs,
                           params=params)
    for fast, lone in zip(swept, _lone_runs(_CPU, events, configs, params)):
        assert_identical(fast, lone)


@settings(max_examples=20, deadline=None)
@given(events=event_sets(),
       seeds=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=1, max_size=4))
def test_replay_matches_scalar_without_voltage_rail(events, seeds):
    """CPU B has no voltage control — the f strategy's frequency-only
    transitions must still sweep exactly."""
    cpu = cpu_b_ryzen_7700x()
    params = default_params_for(cpu.vendor)
    configs = [SweepConfig(strategy="f", seed=seed) for seed in seeds]
    swept = simulate_sweep(cpu, _PROFILE, _make_trace(events), configs,
                           params=params)
    for fast, lone in zip(swept, _lone_runs(cpu, events, configs, params)):
        assert_identical(fast, lone)


class TestSweepSemantics:
    """simulate_sweep == SuitSystem.run_profile, config by config."""

    @pytest.fixture(scope="class")
    def gen_trace(self):
        return generate_trace(_GEN_PROFILE, seed=0)

    @pytest.mark.parametrize("strategy", ["fV", "f", "V", "e"])
    def test_sweep_matches_run_profile(self, gen_trace, strategy):
        suit = SuitSystem.for_cpu("C", strategy_name=strategy,
                                  voltage_offset=-0.097, seed=0)
        suit.prime_trace(_GEN_PROFILE, gen_trace)
        reference = suit.run_profile(_GEN_PROFILE)
        [swept] = suit.run_sweep(_GEN_PROFILE, [
            SweepConfig(strategy=strategy, voltage_offset=-0.097, seed=0)])
        assert_identical(swept, reference)

    def test_results_come_back_in_config_order(self, gen_trace):
        configs = [SweepConfig(strategy=s, voltage_offset=off, seed=0)
                   for s in ("V", "fV", "e", "f")
                   for off in (-0.07, -0.097)]
        results = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace, configs)
        assert [(r.strategy, r.voltage_offset) for r in results] == \
            [(c.strategy, c.voltage_offset) for c in configs]

    def test_e_config_is_the_closed_form_estimate(self, gen_trace):
        [swept] = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                                 [SweepConfig(strategy="e")])
        estimate = emulation_estimate(_CPU, _GEN_PROFILE, gen_trace,
                                      -0.097)
        assert_identical(swept, estimate)

    def test_e_config_rejects_enclaves(self, gen_trace):
        enclave = WorkloadProfile(
            name="gen", suite="SPECint", n_instructions=2_000_000,
            ipc=1.2, efficient_occupancy=0.4, n_episodes=3,
            dense_gap=400, imul_density=0.1,
            opcode_mix={Opcode.VOR: 1.0}, in_enclave=True)
        with pytest.raises(ValueError, match="enclave"):
            simulate_sweep(_CPU, enclave, gen_trace,
                           [SweepConfig(strategy="e")])

    def test_force_scalar_agrees_with_vector(self, gen_trace):
        """The sweep over the shared episode must agree with one lone
        scalar :class:`TraceSimulator` per config on the same trace."""
        configs = [SweepConfig(strategy="fV", seed=s) for s in (0, 1)]
        fast = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace, configs)
        params = default_params_for(_CPU.vendor)
        slow = [TraceSimulator(_CPU, _GEN_PROFILE, gen_trace,
                               strategy_for(c.strategy, params),
                               c.voltage_offset, seed=c.seed).run()
                for c in configs]
        for a, b in zip(fast, slow):
            assert_identical(a, b)

    def test_enabled_tracer_takes_the_scalar_path(self, gen_trace):
        """With a tracer installed the sweep must run the instrumented
        simulator: it emits sim-track events and returns the same
        results as an untraced sweep."""
        configs = [SweepConfig(strategy=s, seed=1) for s in ("fV", "V")]
        untraced = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace, configs)
        tracer = enable_tracing(capacity=50_000)
        try:
            traced = simulate_sweep(_CPU, _GEN_PROFILE, gen_trace, configs)
            assert len(tracer) > 0
            names = {e.name for e in tracer.events() if e.pid == TRACK_SIM}
        finally:
            disable_tracing()
        assert {"#DO trap", "p-state change", "timer fire"} <= names
        assert traced == untraced

    def test_core_count_is_validated(self, gen_trace):
        with pytest.raises(ValueError):
            simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                           [SweepConfig()], n_cores=0)
        with pytest.raises(ValueError, match="cores"):
            simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                           [SweepConfig()],
                           n_cores=_CPU.topology.n_cores + 1)

    def test_multicore_sweep_matches_run_profile(self, gen_trace):
        suit = SuitSystem.for_cpu("C", strategy_name="fV",
                                  voltage_offset=-0.097, seed=0,
                                  n_cores=2)
        suit.prime_trace(_GEN_PROFILE, gen_trace)
        reference = suit.run_profile(_GEN_PROFILE)
        [swept] = suit.run_sweep(_GEN_PROFILE, [SweepConfig()])
        assert_identical(swept, reference)

    def test_episode_is_compiled_once_and_cached(self, gen_trace):
        episode = compile_episode(gen_trace)
        assert compile_episode(gen_trace) is episode
        simulate_sweep(_CPU, _GEN_PROFILE, gen_trace,
                       [SweepConfig(seed=3)])
        assert gen_trace._batchsim_episode is episode


class TestEpisodeIndex:
    """The block-maximum index must agree with a linear scan."""

    @settings(max_examples=40, deadline=None)
    @given(events=event_sets(),
           start_frac=st.floats(min_value=0.0, max_value=1.0),
           threshold=st.integers(min_value=0, max_value=5_000_000))
    def test_first_big_gap_equals_linear_scan(self, events, start_frac,
                                              threshold):
        trace = _make_trace(events)
        episode = compile_episode(trace)
        n = trace.n_events
        start = int(start_frac * n)
        buf = np.empty(4096, dtype=bool)
        got = episode.first_big_gap(start, n, threshold, buf)
        gaps = trace.gaps()
        expect = n
        for j in range(start, n):
            if gaps[j] > threshold:
                expect = j
                break
        assert got == expect


class TestTraceLifetime:
    """The episode cached on a trace must not keep the trace alive."""

    def test_trace_is_freed_without_the_cycle_collector(self):
        trace = generate_trace(_GEN_PROFILE, seed=0)
        simulate_sweep(_CPU, _GEN_PROFILE, trace,
                       [SweepConfig(strategy="fV"), SweepConfig(strategy="e")])
        TraceSimulator(_CPU, _GEN_PROFILE, trace,
                       strategy_for("V", default_params_for(_CPU.vendor)),
                       -0.097).run()
        assert trace._batchsim_episode is not None
        ref = weakref.ref(trace)
        gc.disable()
        try:
            del trace
            assert ref() is None
        finally:
            gc.enable()
