"""Command-line interface.

Subcommands:

* ``simulate``  — run a workload under SUIT and print the result.
* ``suite``     — run a workload suite and print Table 6-style aggregates.
* ``trace``     — synthesise / record / inspect traces (.npz files), or
  run an experiment with execution tracing on (``trace <experiment>``)
  and export a Chrome trace-event JSON (chrome://tracing / Perfetto).
* ``tune``      — grid-search the operating-strategy parameters.
* ``reproduce`` — run the paper's experiments (wrapper over runall).
* ``figures``   — render the regenerated figures as terminal plots.
* ``audit``     — run the security audit on a sampled chip.
* ``serve``     — run the simulation service (JSON-lines TCP).
* ``metrics``   — fetch a running service's metrics (Prometheus text).
* ``chaos``     — seeded fault-injection soak with the differential
  oracle; any wrong answer fails the run (exit code 1).
* ``campaign``  — structured fault-injection campaigns against the
  modeled machine (run / resume / report / list), with outcome
  classification and a static HTML dashboard.
* ``fleet``     — the horizontal serving tier: ``serve`` (gateway over
  N worker nodes, autoscaled), ``bench`` (breaking-point ramp,
  writes ``BENCH_fleet.json``), ``status``, ``soak`` (kill a node
  mid-load; zero wrong answers or exit 1).
* ``dse``       — evolutionary design-space exploration over SUIT
  operating points (run / resume / report / recommend / list):
  NSGA-II over (performance, energy, security headroom), Pareto
  frontier, MCDM-ranked recommendation and an HTML dashboard.

Examples:
    python -m repro simulate --cpu C --workload 557.xz --strategy fV
    python -m repro suite --cpu A --offset -0.070
    python -m repro trace gen --workload nginx --out /tmp/nginx.npz
    python -m repro trace info /tmp/nginx.npz
    python -m repro trace fig15_strategies --out trace.json --validate
    python -m repro tune --cpu C
    python -m repro audit --offset -0.097
    python -m repro serve --port 8642 --shards 2 --workers-per-shard 2
    python -m repro metrics --port 8642
    python -m repro chaos --seed 7 --duration 30 --kill-rate 0.1
    python -m repro campaign run --spec msr_bitflip_nginx --seed 7 --out out/
    python -m repro campaign resume --out out/
    python -m repro dse run --search nginx_pareto --out out/dse/
    python -m repro dse recommend --out out/dse/
    python -m repro fleet serve --nodes 3 --port 8643
    python -m repro fleet bench --nodes 3 --out BENCH_fleet.json
    python -m repro fleet status --port 8643
    python -m repro fleet soak --seed 42 --nodes 3 --requests 25 --bursts 8
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (clear error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _resolve_profile(name: str):
    from repro.workloads import resolve_profile

    try:
        return resolve_profile(name)
    except ValueError as exc:
        # Unknown name: lists the full catalogue; ambiguous fragment:
        # lists only the matching candidates (see repro.workloads.resolve).
        raise SystemExit(str(exc))


def _print_result(r) -> None:
    print(f"workload   : {r.workload}")
    print(f"cpu        : {r.cpu_name}")
    print(f"strategy   : {r.strategy} @ {r.voltage_offset * 1e3:+.0f} mV")
    print(f"performance: {r.perf_change * 100:+.2f}%")
    print(f"power      : {r.power_change * 100:+.2f}%")
    print(f"efficiency : {r.efficiency_change * 100:+.2f}%")
    print(f"on E curve : {r.efficient_occupancy * 100:.1f}% of run time")
    print(f"#DO traps  : {r.n_exceptions}  (timer returns: {r.n_timer_fires}, "
          f"thrash stretches: {r.n_thrash_stretches})")


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one workload under SUIT and print the result."""
    from repro.core.suit import SuitSystem

    suit = SuitSystem.for_cpu(args.cpu, strategy_name=args.strategy,
                              voltage_offset=args.offset,
                              n_cores=args.cores, seed=args.seed)
    profile = _resolve_profile(args.workload)
    _print_result(suit.run_profile(profile))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """Run the SPEC suite and print Table 6-style aggregates."""
    from repro.core.suit import SuitSystem
    from repro.workloads.spec import all_spec_profiles

    suit = SuitSystem.for_cpu(args.cpu, strategy_name=args.strategy,
                              voltage_offset=args.offset,
                              n_cores=args.cores, seed=args.seed)
    profiles = all_spec_profiles()
    if args.quick:
        profiles = profiles[::4]
    print(f"running {len(profiles)} workloads on {suit.cpu.name} "
          f"({args.strategy}, {args.offset * 1e3:+.0f} mV)...")
    suite = suit.evaluate_suite(profiles)
    for r in suite.results:
        print(f"  {r.workload:<16} perf {r.perf_change * 100:+6.2f}%  "
              f"pwr {r.power_change * 100:+7.2f}%  "
              f"eff {r.efficiency_change * 100:+6.2f}%")
    print(f"gmean: perf {suite.perf_gmean * 100:+.2f}%  "
          f"pwr {suite.power_gmean * 100:+.2f}%  "
          f"eff {suite.efficiency_gmean * 100:+.2f}%  "
          f"occupancy {suite.mean_occupancy:.2f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate, record or inspect trace files."""
    from repro.workloads.analysis import burst_statistics
    from repro.workloads.generator import generate_trace
    from repro.workloads.programs import record_tls_server_trace
    from repro.workloads.trace import FaultableTrace

    if args.trace_cmd == "gen":
        trace = generate_trace(_resolve_profile(args.workload), seed=args.seed)
        trace.save(args.out)
        print(f"wrote {trace.n_events:,} events "
              f"({trace.n_instructions:,} instructions) to {args.out}")
        return 0
    if args.trace_cmd == "record":
        trace, total = record_tls_server_trace(
            n_requests=args.requests, response_bytes=args.bytes,
            seed=args.seed)
        trace.save(args.out)
        print(f"recorded {total:,} encrypted bytes -> {trace.n_events:,} "
              f"events; wrote {args.out}")
        return 0
    # info
    trace = FaultableTrace.load(args.path)
    stats = burst_statistics(trace)
    print(f"name          : {trace.name}")
    print(f"instructions  : {trace.n_instructions:,} (IPC {trace.ipc})")
    print(f"events        : {trace.n_events:,} "
          f"(1 per {1 / max(trace.faultable_rate, 1e-18):,.0f} instructions)")
    print(f"bursts        : {stats.n_bursts} "
          f"(mean length {stats.mean_burst_length:.1f}, "
          f"intra-gap {stats.mean_intra_gap:,.0f})")
    opcode_counts = {}
    for code, op in enumerate(trace.opcode_table):
        opcode_counts[op.name] = int((trace.opcodes == code).sum())
    print(f"opcodes       : {opcode_counts}")
    return 0


def cmd_trace_run(args: argparse.Namespace) -> int:
    """Run one experiment with tracing on; export the execution trace."""
    import importlib
    import json

    from repro.experiments.runall import EXPERIMENT_MODULES
    from repro.obs import disable_tracing, enable_tracing, validate_chrome_trace

    if args.experiment not in EXPERIMENT_MODULES:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; known experiments:\n  "
            + "\n  ".join(EXPERIMENT_MODULES))
    tracer = enable_tracing(capacity=args.capacity)
    try:
        module = importlib.import_module(
            f"repro.experiments.{args.experiment}")
        module.run(seed=args.seed, fast=not args.full)
        if args.jsonl:
            tracer.export_jsonl(args.out)
        else:
            tracer.export_chrome(args.out)
    finally:
        disable_tracing()
    dropped = (f" ({tracer.n_dropped} dropped: ring buffer full)"
               if tracer.n_dropped else "")
    print(f"wrote {len(tracer)} trace events to {args.out}{dropped}")
    if args.validate:
        if args.jsonl:
            raise SystemExit("--validate checks Chrome JSON; drop --jsonl")
        with open(args.out, encoding="utf-8") as handle:
            n_events = validate_chrome_trace(json.load(handle))
        print(f"trace validates: {n_events} events")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Fetch and print a running service's metrics."""
    import asyncio
    import json

    from repro.service.client import ServiceClient

    async def _fetch() -> str:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            if args.json:
                return json.dumps(await client.metrics(), indent=2,
                                  sort_keys=True)
            return await client.metrics_text()
        finally:
            await client.close()

    try:
        text = asyncio.run(_fetch())
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach service at {args.host}:{args.port}: {exc}")
    print(text.rstrip("\n"))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Grid-search the operating-strategy parameters."""
    from repro.core.tuning import grid_search
    from repro.hardware.models import ALL_CPU_FACTORIES
    from repro.workloads.spec import SPEC_PROFILES

    cpu = ALL_CPU_FACTORIES[args.cpu]()
    profiles = [SPEC_PROFILES[n] for n in ("557.xz", "502.gcc", "527.cam4")]
    result = grid_search(
        cpu, profiles,
        deadlines_s=[float(x) * 1e-6 for x in args.deadlines.split(",")],
        timespans_s=(450e-6,),
        exception_counts=(3,),
        deadline_factors=(7.0, 14.0),
        strategy_name="f" if cpu.transitions.voltage is None else "fV",
        voltage_offset=args.offset,
        seed=args.seed,
    )
    print(f"best parameters on {cpu.name}:")
    print(f"  p_dl = {result.best.deadline_s * 1e6:.0f} us, "
          f"p_df = {result.best.thrash_deadline_factor:.0f} "
          f"(efficiency {result.best_efficiency * 100:+.2f}%)")
    print(f"  grid spread: {result.sensitivity() * 100:.2f} pp "
          "(flat plateau = robust OS-wide policy)")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the paper's experiments (wrapper over the experiment engine)."""
    from repro.experiments.runall import main as runall_main

    argv: List[str] = ["--jobs", str(args.jobs), "--seed", str(args.seed),
                       "--log-level", args.log_level]
    if args.log_json:
        argv.append("--log-json")
    if args.fast:
        argv.append("--fast")
    if args.only:
        argv.extend(["--only", *args.only])
    if args.no_cache:
        argv.append("--no-cache")
    if args.share_traces:
        argv.append("--share-traces")
    if args.out:
        argv.extend(["--out", args.out])
    if args.json is not None:
        argv.append("--json")
        if args.json is not True:
            argv.append(args.json)
    return runall_main(argv)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service until interrupted (or --duration)."""
    import asyncio
    import json
    from pathlib import Path

    from repro.obs import logging_setup
    from repro.runtime.cache import ResultCache
    from repro.service import ServiceConfig, SimulationService, start_tcp_server
    from repro.service.server import service_cache_dir

    try:
        logging_setup(args.log_level, json_format=args.log_json)
    except ValueError as exc:
        raise SystemExit(str(exc))
    config = ServiceConfig(
        n_shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        use_processes=not args.inline,
        max_queue_depth=args.max_queue,
        max_batch_size=args.batch_size,
        batch_window_s=args.batch_window_ms / 1000.0,
        default_timeout_s=args.timeout,
        share_traces=args.share_traces,
    )
    cache = None
    if not args.no_cache:
        root = Path(args.cache_dir) if args.cache_dir else service_cache_dir()
        cache = ResultCache(root, max_bytes=args.cache_max_bytes)

    async def _run() -> None:
        service = SimulationService(config, cache=cache)
        await service.start()
        server = await start_tcp_server(service, args.host, args.port)
        port = server.sockets[0].getsockname()[1]
        print(f"repro service listening on {args.host}:{port}  "
              f"[{config.n_shards} shard(s) x {config.workers_per_shard} "
              f"worker(s), queue {config.max_queue_depth}, "
              f"batch {config.max_batch_size}, "
              f"cache {'off' if cache is None else 'on'}]", flush=True)
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            server.close()
            await server.wait_closed()
            await service.stop()
            print(json.dumps(service.metrics.snapshot()["counters"],
                             indent=2, sort_keys=True))

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded chaos soak refereed by the differential oracle.

    Prints the JSON report (injected vs recovered vs wrong-answer);
    exits 0 only when the oracle saw zero wrong answers.  The
    ``fault_schedule`` section of the report is a pure function of
    ``--seed``, so rerunning with the same seed replays the identical
    schedule.
    """
    import asyncio
    import json

    from repro.testkit.soak import ChaosSoak, SoakConfig

    config = SoakConfig(
        seed=args.seed,
        duration_s=args.duration,
        passes=args.passes,
        n_requests=args.requests,
        worker_kill_rate=args.kill_rate,
        shm_unlink_rate=args.shm_unlink_rate,
        manifest_corrupt_rate=args.manifest_corrupt_rate,
        cache_corrupt_rate=args.cache_corrupt_rate,
        admission_reject_rate=args.admission_reject_rate,
        slow_worker_rate=args.slow_rate,
        request_fail_rate=args.fail_rate,
        use_processes=not args.inline,
        n_shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        check_engine=args.engine,
    )
    result = asyncio.run(ChaosSoak(config).run())
    report = result.to_json_dict()
    if not args.full_schedule:
        # The full schedule can run to thousands of entries; keep the
        # default report readable and replay-comparable via its seed.
        schedule = report["fault_schedule"]
        report["fault_schedule"] = {
            "seed": schedule.get("seed"),
            "horizon": schedule.get("horizon"),
            "specs": schedule.get("specs", []),
            "n_entries": len(schedule.get("entries", [])),
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    if not result.passed:
        print(f"CHAOS SOAK FAILED: {result.wrong_answers} wrong "
              "answer(s) — silent corruption detected", flush=True)
        return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet verbs: serve / bench / status / soak."""
    import asyncio
    import json
    from pathlib import Path

    if args.fleet_cmd == "status":
        from repro.service.client import ServiceClient

        async def _status() -> dict:
            client = await ServiceClient.connect(args.host, args.port)
            try:
                return await client.fleet_status()
            finally:
                await client.close()

        try:
            fleet = asyncio.run(_status())
        except (ConnectionError, OSError) as exc:
            raise SystemExit(
                f"cannot reach gateway at {args.host}:{args.port}: {exc}")
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(json.dumps(fleet, indent=2, sort_keys=True))
        return 0

    if args.fleet_cmd == "soak":
        from repro.fleet.soak import FleetSoak, FleetSoakConfig

        config = FleetSoakConfig(
            seed=args.seed,
            n_nodes=args.nodes,
            n_requests=args.requests,
            bursts=args.bursts,
            kill_node=not args.no_kill,
            forward_fault_rate=args.forward_fault_rate,
            health_fault_rate=args.health_fault_rate,
            require_all_ok=not args.allow_degraded,
            use_processes=args.processes,
        )
        try:
            soak = FleetSoak(config)
        except ValueError as exc:
            raise SystemExit(str(exc))
        result = asyncio.run(soak.run())
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
        if not result.passed:
            print(f"FLEET SOAK FAILED: {result.wrong_answers} wrong, "
                  f"{result.degraded_answers} degraded answer(s)",
                  flush=True)
            return 1
        return 0

    if args.fleet_cmd == "bench":
        from repro.fleet.bench import FleetBenchConfig, run_fleet_bench
        from repro.fleet.loadgen import LoadGenConfig, write_bench

        try:
            config = FleetBenchConfig(
                n_nodes=args.nodes,
                use_processes=not args.inline,
                n_shards=args.shards,
                workers_per_shard=args.workers_per_shard,
                autoscale=not args.no_autoscale,
                max_nodes=args.max_nodes,
                baseline=not args.no_baseline,
                load=LoadGenConfig(
                    start_rps=args.start_rps,
                    step_rps=args.step_rps,
                    max_steps=args.max_steps,
                    requests_per_step=args.requests_per_step,
                    slo_p95_s=args.slo_p95,
                    slo_error_rate=args.slo_error_rate,
                    seed=args.seed,
                    stall_s=args.stall_s,
                ),
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        payload = asyncio.run(run_fleet_bench(config))
        write_bench(Path(args.out), payload)
        comparison = payload["comparison"]
        print(f"wrote {args.out}")
        print(f"fleet       : {comparison['fleet_max_sustainable_rps']} rps "
              f"sustainable (breaking point "
              f"{payload['fleet']['breaking_point_rps']} rps)")
        if comparison["single_node_max_sustainable_rps"] is not None:
            print(f"single node : "
                  f"{comparison['single_node_max_sustainable_rps']} rps "
                  f"sustainable")
            print(f"ratio       : {comparison['throughput_ratio']}x")
        for event in payload["autoscaler"]["events"]:
            print(f"  scale event: {event['action']} -> "
                  f"{event['fleet_size']} nodes ({event['reason']})")
        return 0

    # serve
    from repro.fleet import (
        Autoscaler,
        AutoscalerConfig,
        FleetGateway,
        GatewayConfig,
        NodeConfig,
        NodeSupervisor,
        start_fleet_server,
    )

    async def _serve() -> None:
        supervisor = NodeSupervisor(NodeConfig(
            in_process=args.in_process,
            use_processes=not args.inline,
            n_shards=args.shards,
            workers_per_shard=args.workers_per_shard,
        ))
        gateway = FleetGateway(GatewayConfig())
        scaler = None
        server = None
        try:
            for _ in range(args.nodes):
                handle = await supervisor.spawn()
                gateway.add_node(handle.name, handle.host, handle.port)
            await gateway.start()
            if not args.no_autoscale:
                scaler = Autoscaler(gateway, supervisor, AutoscalerConfig(
                    min_nodes=args.nodes, max_nodes=args.max_nodes))
                await scaler.start()
            server = await start_fleet_server(gateway, args.host, args.port)
            port = server.sockets[0].getsockname()[1]
            mode = "in-process" if args.in_process else "subprocess"
            print(f"repro fleet gateway listening on {args.host}:{port}  "
                  f"[{args.nodes} {mode} node(s), autoscale "
                  f"{'off' if args.no_autoscale else f'<= {args.max_nodes}'}]",
                  flush=True)
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()
            if scaler is not None:
                await scaler.stop()
            status = await gateway.status()
            await gateway.close()
            await supervisor.stop_all(drain=True)
            print(json.dumps(status["counters"], indent=2, sort_keys=True))

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


class _StudyCommand:
    """One checkpointed study command (``campaign``, ``dse``): the
    shared run / resume / report / list parsers and handler.

    Subclasses name the subsystem (``api()`` returns its runner class,
    spec resolver and canned catalogue), add their own flags and verbs
    and format their summary.  ``overrides`` are positive-int spec
    fields settable next to ``--seed``; ``extra_verbs`` are ``(verb,
    help)`` pairs over a written report, handled by ``do_<verb>``.
    """

    command = help = noun = plural = spec_flag = spec_help = run_help = ""
    jobs_help = unit = stop_kwarg = list_format = ""
    overrides: tuple = ()
    extra_verbs: tuple = ()

    @property
    def report_name(self) -> str:
        return f"{self.command}_report.json"

    def register(self, sub) -> None:
        p = sub.add_parser(self.command, help=self.help)
        verbs = p.add_subparsers(dest=f"{self.command}_cmd", required=True)
        spec = self.spec_flag[2:]
        for resume in (False, True):
            v = verbs.add_parser(
                "resume" if resume else "run",
                help=f"continue an interrupted {self.noun} from its "
                     "checkpoint" if resume else self.run_help)
            if resume:
                v.add_argument("--out", required=True,
                               help=f"artifact directory holding "
                                    f"{self.command}.ckpt.json")
                v.add_argument(self.spec_flag, default=None,
                               help=f"{spec} name/path (default: the "
                                    "checkpoint's spec)")
            else:
                v.add_argument(self.spec_flag, required=True,
                               help=self.spec_help)
            v.add_argument("--seed", type=int, default=None,
                           help=f"override the {spec}'s master seed")
            for name, text in self.overrides:
                v.add_argument(f"--{name}", type=_positive_int,
                               default=None, help=text)
            if not resume:
                v.add_argument("--out", default=None,
                               help="artifact directory (checkpoint, JSON "
                                    "report, HTML dashboard); omit to run "
                                    "in memory")
            v.add_argument("--jobs", type=_positive_int, default=1,
                           help=self.jobs_help)
            self.add_run_options(v)
            v.add_argument(f"--max-{self.unit}", dest="max_steps",
                           metavar=f"MAX_{self.unit.upper()}",
                           type=_positive_int, default=None,
                           help=f"stop after N further {self.unit}" if resume
                           else f"stop after N {self.unit} (checkpoint "
                                "stays resumable)")
            v.add_argument("--no-html", action="store_true",
                           help="skip the HTML dashboard")
            v.set_defaults(func=self.do_run, resume=resume)
        for verb, text in (("report", "re-render the HTML dashboard from a "
                                      f"written {self.report_name}"),
                           *self.extra_verbs):
            v = verbs.add_parser(verb, help=text)
            v.add_argument("--out", required=True,
                           help=f"artifact directory holding "
                                f"{self.report_name}")
            v.set_defaults(func=getattr(self, f"do_{verb}"))
        verbs.add_parser("list", help=f"list the canned {self.plural}"
                         ).set_defaults(func=self.do_list)

    def add_run_options(self, parser) -> None:
        pass

    def make_runner(self, runner_cls, spec, out_dir, args):
        return runner_cls(spec, out_dir=out_dir, jobs=args.jobs)

    def read_report(self, out: str) -> dict:
        import json
        from pathlib import Path

        path = Path(out) / self.report_name
        if not path.exists():
            raise SystemExit(f"no {self.report_name} in {out}; run the "
                             f"{self.noun} first ({self.command} run --out "
                             "...)")
        return json.loads(path.read_text(encoding="utf-8"))

    def do_list(self, args: argparse.Namespace) -> int:
        _, _, canned = self.api()
        for name, spec in sorted(canned.items()):
            print(self.list_format.format(name=name, spec=spec))
        return 0

    def do_report(self, args: argparse.Namespace) -> int:
        from pathlib import Path

        from repro.runtime.study import HTML_NAME

        runner_cls, _, _ = self.api()
        html_path = Path(args.out) / HTML_NAME
        html_path.write_text(
            runner_cls.render_html(self.read_report(args.out)),
            encoding="utf-8")
        print(f"wrote {html_path}")
        return 0

    def do_run(self, args: argparse.Namespace) -> int:
        from pathlib import Path

        from repro.runtime.study import CheckpointMismatchError, HTML_NAME

        runner_cls, resolve, _ = self.api()
        name = getattr(args, self.spec_flag[2:])
        try:
            if args.resume and name is None:
                spec = runner_cls.load_checkpoint_spec(Path(args.out))
            else:
                spec = resolve(name)
        except (ValueError, FileNotFoundError, CheckpointMismatchError) as exc:
            raise SystemExit(str(exc))
        spec = spec.with_overrides(**{
            field: getattr(args, field)
            for field in ("seed", *(f for f, _ in self.overrides))
            if getattr(args, field) is not None})

        out_dir = Path(args.out) if args.out else None
        runner = self.make_runner(runner_cls, spec, out_dir, args)
        try:
            report = runner.run(resume=args.resume,
                                **{self.stop_kwarg: args.max_steps})
        except CheckpointMismatchError as exc:
            raise SystemExit(str(exc))
        if out_dir is not None:
            report = runner.write_outputs(html=not args.no_html)

        lines, pending = self.summary(report)
        if out_dir is not None:
            lines.append(f"artifacts  : {out_dir / self.report_name}"
                         + ("" if args.no_html else
                            f", {out_dir / HTML_NAME}"))
        print("\n".join(lines + ([pending] if pending else [])))
        return 0


class _CampaignCommand(_StudyCommand):
    """``campaign``: structured fault-injection campaigns."""

    command, noun, plural = "campaign", "campaign", "campaigns"
    help = "structured fault-injection campaigns"
    spec_flag = "--spec"
    spec_help = ("canned campaign name (see `campaign list`) or a "
                 "JSON/TOML spec file path")
    run_help = "execute a campaign's full sample matrix"
    jobs_help = "parallel worker processes"
    unit, stop_kwarg = "runs", "stop_after"
    list_format = ("{name:<22} scope={spec.scope:<8} "
                   "model={spec.fault_model:<10} runs={spec.n_runs}")
    overrides = (("samples", "override runs per undervolt grid point"),)

    def api(self):
        from repro.campaigns import (CANNED_CAMPAIGNS, CampaignRunner,
                                     resolve_spec)

        return CampaignRunner, resolve_spec, CANNED_CAMPAIGNS

    def summary(self, report: dict):
        import json

        lines = [f"campaign   : {report['campaign']}  "
                 f"({report['n_completed']}/{report['n_runs']} runs)",
                 f"outcomes   : {json.dumps(report['outcomes'])}"]
        lines += [f"  {row['offset_mv']:>8.1f} mV  n={row['n']:<3} "
                  f"sdc={row['sdc_rate']:.3f} "
                  f"detected={row['detected_rate']:.3f} "
                  f"crashed={row['crashed_rate']:.3f}"
                  for row in report["by_offset"]]
        pending = report["incomplete"] and (
            f"incomplete : {len(report['incomplete'])} runs remain "
            "(campaign resume --out ... continues)")
        return lines, pending


class _DseCommand(_StudyCommand):
    """``dse``: evolutionary design-space exploration."""

    command, noun, plural = "dse", "search", "searches"
    help = "evolutionary design-space exploration"
    spec_flag = "--search"
    spec_help = ("canned search name (see `dse list`) or a JSON spec file "
                 "path")
    run_help = "run a search's full generation schedule"
    jobs_help = "parallel worker processes per generation"
    unit, stop_kwarg = "generations", "stop_after_generations"
    list_format = ("{name:<16} cpu={spec.cpu} workload={spec.workload:<8} "
                   "{spec.generations} gen x {spec.population} genomes")
    overrides = (("generations", "override the generation count"),
                 ("population", "override the population size"))
    extra_verbs = (("recommend",
                    "print the recommended operating point as JSON"),)

    def api(self):
        from repro.dse import CANNED_SEARCHES, DseRunner, resolve_search

        return DseRunner, resolve_search, CANNED_SEARCHES

    def add_run_options(self, parser) -> None:
        parser.add_argument(
            "--service", default=None, metavar="HOST:PORT",
            help="evaluate generations on a running simulation service "
                 "instead of in-process")

    def make_runner(self, runner_cls, spec, out_dir, args):
        from repro.dse import ServiceEvalBackend

        backend = None
        if args.service:
            host, _, port = args.service.rpartition(":")
            backend = ServiceEvalBackend(spec, host=host or "127.0.0.1",
                                         port=int(port))
        return runner_cls(spec, out_dir=out_dir, jobs=args.jobs,
                          backend=backend)

    def do_recommend(self, args: argparse.Namespace) -> int:
        import json

        rec = self.read_report(args.out).get("recommendation")
        if not rec:
            raise SystemExit("no recommendation yet: the search has not "
                             "completed a generation")
        print(json.dumps(rec, indent=2, sort_keys=True))
        return 0

    def summary(self, report: dict):
        lines = [f"search     : {report['search']}  "
                 f"({report['n_generations']}/"
                 f"{report['generations_requested']} generations)",
                 f"frontier   : {len(report['front'])} points, "
                 f"{report['front_violations']} security violations"]
        rec = report.get("recommendation")
        if rec:
            lines += [
                f"recommended: {rec['describe']}",
                f"  perf {rec['perf_change_pct']:+.2f}%  "
                f"power {rec['power_change_pct']:+.2f}%  "
                f"efficiency {rec['efficiency_change_pct']:+.2f}%  "
                f"headroom {rec['objectives']['security_headroom_mv']:.1f} mV"]
        pending = (report["n_generations"] < report["generations_requested"]
                   and "incomplete : dse resume --out ... continues")
        return lines, pending


def cmd_figures(args: argparse.Namespace) -> int:
    """Render the regenerated figures as terminal plots."""
    from repro.experiments.figures import render, render_all

    if args.which == "all":
        print(render_all(fast=not args.full))
    else:
        print(render(args.which, fast=not args.full))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Security-audit a sampled chip at an offset (exit 1 if unsafe)."""
    from repro.faults.model import FaultModel
    from repro.hardware.models import ALL_CPU_FACTORIES
    from repro.security.analysis import reductionist_argument

    cpu = ALL_CPU_FACTORIES[args.cpu]()
    chip = FaultModel().sample_chip(
        cpu.conservative_curve, n_cores=args.chip_cores,
        rng=np.random.default_rng(args.seed), exhibits=True)
    verdict = reductionist_argument(chip, args.offset,
                                    frequencies=(2e9, 3e9, cpu.nominal_frequency))
    print(f"chip sampled from {cpu.name} population (seed {args.seed})")
    print(f"conservative curve safe: {verdict.conservative.safe} "
          f"({verdict.conservative.checked} points)")
    print(f"efficient curve ({args.offset * 1e3:+.0f} mV) safe: "
          f"{verdict.efficient.safe} ({verdict.efficient.checked} points)")
    if not verdict.efficient.safe:
        for op, core, freq in verdict.efficient.violations[:10]:
            print(f"  VIOLATION: {op.name} on core {core} at {freq / 1e9:.1f} GHz")
    print(f"reductionist argument holds: {verdict.holds}")
    return 0 if verdict.holds else 1


def cmd_obs(args: argparse.Namespace) -> int:
    """Observability verbs: top / dashboard / smoke."""
    import asyncio
    import json
    from pathlib import Path

    if args.obs_cmd == "smoke":
        from repro.obs.smoke import ObsSmokeConfig, run_obs_smoke

        report = run_obs_smoke(ObsSmokeConfig(
            out_dir=Path(args.out), n_nodes=args.nodes,
            n_slow=args.slow, n_fast=args.fast))
        print(json.dumps(report["checks"], indent=2, sort_keys=True))
        print(f"windowed p95 {report['windowed_p95_s']}s vs cumulative "
              f"{report['cumulative_p95_s']}s; "
              f"{report['n_stitched_traces']} stitched trace(s) across "
              f"{report['n_process_lanes']} process lanes")
        print(f"artefacts in {args.out}/ (report.json, fleet_trace.json, "
              "dashboard.html)")
        if not report["passed"]:
            failed = [k for k, ok in report["checks"].items() if not ok]
            print(f"OBS SMOKE FAILED: {', '.join(failed)}", flush=True)
            return 1
        return 0

    # top / dashboard: poll a running service or gateway over TCP.
    from repro.obs.dashboard import render_obs_dashboard, render_top
    from repro.obs.smoke import aggregate_snapshots
    from repro.obs.timeseries import MetricsScraper
    from repro.service.client import ServiceClient

    scrapers: dict = {}

    def ingest(answer: dict) -> None:
        """One poll into the per-target scrapers.

        A gateway answers ``{"gateway": ..., "nodes": {...}}`` (one
        scraper per node plus an aggregated ``fleet`` one); a plain
        node answers a flat registry snapshot.
        """
        def scraper(name: str) -> MetricsScraper:
            return scrapers.setdefault(
                name, MetricsScraper(interval_s=args.interval))
        if "nodes" in answer and "gateway" in answer:
            node_snaps = []
            for name, snap in sorted((answer.get("nodes") or {}).items()):
                if isinstance(snap, dict) and "error" not in snap:
                    node_snaps.append(snap)
                    scraper(name).ingest(snap)
            scraper("fleet").ingest(aggregate_snapshots(node_snaps))
        else:
            scraper("service").ingest(answer)

    async def _poll(frames: int) -> None:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            for frame in range(frames):
                if frame:
                    await asyncio.sleep(args.interval)
                ingest(await client.metrics())
                if args.obs_cmd == "top" and frame:
                    print(render_top(scrapers, window_s=args.window))
                    print()
        finally:
            await client.close()

    try:
        if args.obs_cmd == "top":
            asyncio.run(_poll(args.frames + 1))
            return 0
        # dashboard: scrape, fetch the trace summary, write the HTML.
        asyncio.run(_poll(max(2, args.scrapes)))

        async def _trace() -> dict:
            client = await ServiceClient.connect(args.host, args.port)
            try:
                return await client.trace()
            finally:
                await client.close()

        trace = asyncio.run(_trace())
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach target at {args.host}:{args.port}: {exc}")
    merged = trace.get("merged")
    trace_summary = None
    if isinstance(merged, dict):
        from repro.obs.context import trace_ids_in

        events = merged.get("traceEvents") or []
        trace_summary = {
            "n_processes": (merged.get("otherData") or {}).get(
                "n_processes", 0),
            "n_stitched_traces": len(trace_ids_in(events)),
            "path": None}
    page = render_obs_dashboard(scrapers, flight=trace.get("flight"),
                                trace_summary=trace_summary,
                                window_s=args.window)
    Path(args.out).write_text(page, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SUIT reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cpu", default="C", choices=["A", "B", "C", "i5"])
        p.add_argument("--offset", type=float, default=-0.097,
                       help="efficient-curve offset in volts (negative)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="run one workload under SUIT")
    common(p)
    p.add_argument("--workload", default="557.xz")
    p.add_argument("--strategy", default="fV", choices=["fV", "f", "V", "e"])
    p.add_argument("--cores", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("suite", help="run the SPEC suite")
    common(p)
    p.add_argument("--strategy", default="fV", choices=["fV", "f", "V", "e"])
    p.add_argument("--cores", type=int, default=1)
    p.add_argument("--quick", action="store_true", help="subset of workloads")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("trace", help="generate / record / inspect traces")
    trace_sub = p.add_subparsers(dest="trace_cmd", required=True)
    g = trace_sub.add_parser("gen", help="synthesise a profile's trace")
    g.add_argument("--workload", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    r = trace_sub.add_parser("record", help="record the TLS-server program")
    r.add_argument("--requests", type=int, default=40)
    r.add_argument("--bytes", type=int, default=4096)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=0)
    i = trace_sub.add_parser("info", help="inspect a saved trace")
    i.add_argument("path")
    p.set_defaults(func=cmd_trace)
    t = trace_sub.add_parser(
        "run", help="run an experiment with execution tracing on")
    t.add_argument("experiment",
                   help="experiment module name (e.g. fig15_strategies)")
    t.add_argument("--out", required=True,
                   help="trace output path (Chrome trace-event JSON)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--full", action="store_true",
                   help="full (slower) run instead of --fast")
    t.add_argument("--jsonl", action="store_true",
                   help="export JSON lines instead of Chrome JSON")
    t.add_argument("--validate", action="store_true",
                   help="schema-check the written Chrome trace")
    t.add_argument("--capacity", type=_positive_int, default=1_000_000,
                   help="ring-buffer capacity in events")
    t.set_defaults(func=cmd_trace_run)

    p = sub.add_parser("tune", help="parameter grid search")
    common(p)
    p.add_argument("--deadlines", default="10,20,30,60,120",
                   help="comma-separated deadlines in microseconds")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("reproduce", help="run the paper's experiments")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--only", nargs="*")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-cache", action="store_true",
                   help="always recompute; skip the result cache")
    p.add_argument("--share-traces", action="store_true",
                   help="serve synthesised traces to pool workers through "
                        "the zero-copy shared trace store")
    p.add_argument("--out", default=None,
                   help="write the metric summary to this file")
    p.add_argument("--json", nargs="?", const=True, default=None,
                   metavar="PATH", help="write the machine-readable report")
    p.add_argument("--log-level", default="INFO",
                   help="logging threshold (DEBUG, INFO, ...)")
    p.add_argument("--log-json", action="store_true",
                   help="emit log records as JSON lines")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("figures", help="render the figures as terminal plots")
    p.add_argument("which", nargs="?", default="all",
                   help="fig5|fig7|fig12|fig13|fig14|fig16|all")
    p.add_argument("--full", action="store_true",
                   help="full (slower) experiment runs behind the plots")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("audit", help="security audit of a sampled chip")
    common(p)
    p.add_argument("--chip-cores", type=int, default=4)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", help="run the simulation service over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--shards", type=_positive_int, default=2,
                   help="worker-pool shards (keyed by cpu/strategy)")
    p.add_argument("--workers-per-shard", type=_positive_int, default=2,
                   help="processes per shard")
    p.add_argument("--max-queue", type=_positive_int, default=128,
                   help="admission bound; beyond it requests are rejected")
    p.add_argument("--batch-size", type=_positive_int, default=8,
                   help="micro-batch occupancy cap")
    p.add_argument("--batch-window-ms", type=float, default=5.0,
                   help="how long an under-full batch waits for companions")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="default per-request timeout in seconds")
    p.add_argument("--inline", action="store_true",
                   help="thread workers instead of process shards")
    p.add_argument("--share-traces", action="store_true",
                   help="serve synthesised traces to worker processes "
                        "through the zero-copy shared trace store")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: "
                        "~/.cache/repro-suit/service)")
    p.add_argument("--cache-max-bytes", type=int, default=1 << 30,
                   help="LRU size cap of the result cache")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for N seconds then drain (default: forever)")
    p.add_argument("--log-level", default="INFO",
                   help="logging threshold (DEBUG, INFO, ...)")
    p.add_argument("--log-json", action="store_true",
                   help="emit log records as JSON lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("chaos",
                       help="seeded fault-injection soak with the "
                            "differential oracle")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed: fixes the fault schedule and the "
                        "canonical request set")
    p.add_argument("--duration", type=float, default=10.0,
                   help="soak for at least N seconds (and >= 2 passes)")
    p.add_argument("--passes", type=_positive_int, default=None,
                   help="drive exactly N request-set passes instead of "
                        "--duration (deterministic workload)")
    p.add_argument("--requests", type=_positive_int, default=8,
                   help="canonical request-set size")
    p.add_argument("--kill-rate", type=float, default=0.1,
                   help="P(kill a pool worker) per batch dispatch")
    p.add_argument("--shm-unlink-rate", type=float, default=0.1,
                   help="P(unlink the shm segment) per store attach")
    p.add_argument("--manifest-corrupt-rate", type=float, default=0.05,
                   help="P(corrupt the manifest) per store attach")
    p.add_argument("--cache-corrupt-rate", type=float, default=0.1,
                   help="P(corrupt the entry file) per cache read")
    p.add_argument("--admission-reject-rate", type=float, default=0.05,
                   help="P(injected admission overflow) per submit")
    p.add_argument("--slow-rate", type=float, default=0.0,
                   help="P(hold a worker 50 ms) per request")
    p.add_argument("--fail-rate", type=float, default=0.0,
                   help="P(injected worker exception) per request")
    p.add_argument("--shards", type=_positive_int, default=2,
                   help="service worker-pool shards")
    p.add_argument("--workers-per-shard", type=_positive_int, default=2,
                   help="workers per shard")
    p.add_argument("--inline", action="store_true",
                   help="thread workers instead of process shards "
                        "(worker-kill faults become no-ops)")
    p.add_argument("--engine", action="store_true",
                   help="also run the engine determinism channel")
    p.add_argument("--full-schedule", action="store_true",
                   help="embed every planned fault in the report "
                        "instead of the summary")
    p.set_defaults(func=cmd_chaos)

    _CampaignCommand().register(sub)
    _DseCommand().register(sub)

    p = sub.add_parser("metrics",
                       help="fetch a running service's metrics")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--json", action="store_true",
                   help="JSON snapshot instead of Prometheus text")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fleet",
                       help="gateway + worker fleet (serve / bench / "
                            "status / soak)")
    fleet_sub = p.add_subparsers(dest="fleet_cmd", required=True)
    fs = fleet_sub.add_parser(
        "serve", help="run a gateway over N worker nodes")
    fs.add_argument("--host", default="127.0.0.1")
    fs.add_argument("--port", type=int, default=8643,
                    help="gateway TCP port (0 binds an ephemeral port)")
    fs.add_argument("--nodes", type=_positive_int, default=2,
                    help="worker nodes to start with")
    fs.add_argument("--shards", type=_positive_int, default=1,
                    help="worker-pool shards per node")
    fs.add_argument("--workers-per-shard", type=_positive_int, default=2,
                    help="processes per shard, per node")
    fs.add_argument("--inline", action="store_true",
                    help="thread workers instead of process pools")
    fs.add_argument("--in-process", action="store_true",
                    help="nodes on the gateway's event loop instead of "
                         "python -m repro serve subprocesses")
    fs.add_argument("--no-autoscale", action="store_true",
                    help="fixed fleet size (no control loop)")
    fs.add_argument("--max-nodes", type=_positive_int, default=8,
                    help="autoscaler growth ceiling")
    fs.add_argument("--duration", type=float, default=None,
                    help="serve for N seconds then drain (default: forever)")
    fs.set_defaults(func=cmd_fleet)
    fb = fleet_sub.add_parser(
        "bench", help="breaking-point ramp; writes BENCH_fleet.json")
    fb.add_argument("--nodes", type=_positive_int, default=3,
                    help="fleet size the scaled ramp starts with")
    fb.add_argument("--shards", type=_positive_int, default=1,
                    help="worker-pool shards per node")
    fb.add_argument("--workers-per-shard", type=_positive_int, default=2,
                    help="processes per shard, per node")
    fb.add_argument("--inline", action="store_true",
                    help="thread workers (GIL-bound: only for quick "
                         "harness checks, not scaling claims)")
    fb.add_argument("--no-autoscale", action="store_true",
                    help="fixed fleet size during the ramp")
    fb.add_argument("--max-nodes", type=_positive_int, default=5,
                    help="autoscaler growth ceiling")
    fb.add_argument("--no-baseline", action="store_true",
                    help="skip the single-node comparison ramp")
    fb.add_argument("--start-rps", type=float, default=25.0)
    fb.add_argument("--step-rps", type=float, default=25.0)
    fb.add_argument("--max-steps", type=_positive_int, default=8)
    fb.add_argument("--requests-per-step", type=_positive_int, default=50)
    fb.add_argument("--slo-p95", type=float, default=1.0,
                    help="latency SLO in seconds")
    fb.add_argument("--slo-error-rate", type=float, default=0.02,
                    help="tolerated fraction of non-ok answers")
    fb.add_argument("--stall-s", type=float, default=None,
                    help="switch to the constant-service-time capacity "
                         "mix with this per-request stall in seconds "
                         "(the honest scaling measure on few-core "
                         "hosts); default: CPU-bound simulation mix")
    fb.add_argument("--seed", type=int, default=0)
    fb.add_argument("--out", default="BENCH_fleet.json",
                    help="report path")
    fb.set_defaults(func=cmd_fleet)
    ft = fleet_sub.add_parser(
        "status", help="fetch a running gateway's fleet status")
    ft.add_argument("--host", default="127.0.0.1")
    ft.add_argument("--port", type=int, default=8643)
    ft.set_defaults(func=cmd_fleet)
    fk = fleet_sub.add_parser(
        "soak", help="chaos-over-fleet: kill a node mid-load, demand "
                     "zero wrong answers (exit 1 on failure)")
    fk.add_argument("--seed", type=int, default=0,
                    help="master seed (request set + fault schedule)")
    fk.add_argument("--nodes", type=_positive_int, default=3,
                    help="fleet size")
    fk.add_argument("--requests", type=_positive_int, default=8,
                    help="canonical requests per burst")
    fk.add_argument("--bursts", type=_positive_int, default=4,
                    help="bursts driven through the gateway")
    fk.add_argument("--no-kill", action="store_true",
                    help="leave every node alive (faults only)")
    fk.add_argument("--forward-fault-rate", type=float, default=0.0,
                    help="P(injected connection reset) per forward")
    fk.add_argument("--health-fault-rate", type=float, default=0.0,
                    help="P(injected OSError) per health probe")
    fk.add_argument("--allow-degraded", action="store_true",
                    help="tolerate explicit failures (wrong answers "
                         "still fail the soak)")
    fk.add_argument("--processes", action="store_true",
                    help="process worker pools in the nodes")
    fk.set_defaults(func=cmd_fleet)

    p = sub.add_parser("obs",
                       help="observability: live top, HTML dashboard, smoke")
    obs_sub = p.add_subparsers(dest="obs_cmd", required=True)
    ot = obs_sub.add_parser(
        "top", help="poll a service or gateway and print windowed stats")
    ot.add_argument("--host", default="127.0.0.1")
    ot.add_argument("--port", type=int, default=8642)
    ot.add_argument("--interval", type=float, default=1.0,
                    help="seconds between polls")
    ot.add_argument("--frames", type=_positive_int, default=5,
                    help="frames to print before exiting")
    ot.add_argument("--window", type=float, default=60.0,
                    help="window behind rates and percentiles (s)")
    ot.set_defaults(func=cmd_obs)
    od = obs_sub.add_parser(
        "dashboard", help="scrape a target and write the HTML dashboard")
    od.add_argument("--host", default="127.0.0.1")
    od.add_argument("--port", type=int, default=8642)
    od.add_argument("--interval", type=float, default=1.0,
                    help="seconds between scrapes")
    od.add_argument("--scrapes", type=_positive_int, default=3,
                    help="scrapes before rendering (>= 2 for windows)")
    od.add_argument("--window", type=float, default=60.0,
                    help="window behind rates and percentiles (s)")
    od.add_argument("--out", default="dashboard.html",
                    help="output HTML path")
    od.set_defaults(func=cmd_obs)
    os_ = obs_sub.add_parser(
        "smoke", help="end-to-end observability smoke over a 2-node "
                      "fleet (exit 1 on failure)")
    os_.add_argument("--out", default="obs-smoke",
                     help="artefact directory (report, trace, dashboard)")
    os_.add_argument("--nodes", type=_positive_int, default=2,
                     help="fleet size")
    os_.add_argument("--slow", type=_positive_int, default=12,
                     help="slow (SLO-burning) requests")
    os_.add_argument("--fast", type=_positive_int, default=19,
                     help="fast requests per healthy burst (x2 bursts)")
    os_.set_defaults(func=cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Sugar: ``repro trace <experiment> ...`` means ``trace run ...``
    # (the .npz verbs gen/record/info keep their spelling).
    if (len(argv) >= 2 and argv[0] == "trace"
            and argv[1] not in ("gen", "record", "info", "run")
            and not argv[1].startswith("-")):
        argv.insert(1, "run")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
