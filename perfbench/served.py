"""The served workloads: closed-loop clients against live servers.

``serve_mixed`` drives ``python -m repro serve`` and ``gateway_repeat``
drives ``python -m repro fleet serve``, each server in its own session
so that every process it starts (pool workers, fleet nodes) is stopped
with it.  A traced server is started through :mod:`launch` instead,
which records layer spans in the server process.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Two connections, one per core of the 2-core host the benchmark was
#: written on.
CONNECTIONS = 2
#: Cheap SPEC traces (4k-110k events): a fresh request costs tens of
#: milliseconds, so a short run still holds many of them.
CHEAP_WORKLOADS = ("557.xz", "549.fotonik3d", "525.x264", "508.namd",
                   "502.gcc")
GATEWAY_WORKLOADS = ("557.xz", "549.fotonik3d", "525.x264", "508.namd")
STRATEGIES = ("fV", "f", "V", "e")
OFFSETS = (-0.070, -0.097)
#: serve_mixed sends at least this many requests, so its p99 has more
#: than ten samples beyond it.
SERVE_MIN_REQUESTS = 1000
#: Alternating untraced/traced windows of a traced served run.
TRACE_WINDOWS = 6
#: Requests whose payload is compared with an in-process run_profile.
REFERENCE_SAMPLE = 16
#: The servers under test.  Fleet nodes run without a result cache, so
#: every gateway_repeat request is recomputed.  The fleet's node runs on
#: the gateway's event loop with thread workers: with a subprocess node
#: and a process pool, five processes share the two cores and the
#: gateway's p50 moved by half its value from run to run on the shared
#: host; in one process it stays within about 10 %.  The gateway path
#: (routing, the pooled forward over loopback TCP, the relayed reply)
#: is the same either way.
SERVE_ARGS = ("serve", "--port", "0", "--shards", "1",
              "--workers-per-shard", "2")
GATEWAY_ARGS = ("fleet", "serve", "--port", "0", "--nodes", "1",
                "--no-autoscale", "--in-process", "--inline")


class Server:
    """One server process tree, started in a session of its own."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 log_path: Path) -> None:
        """Start *argv*; :meth:`wait_ready` returns its port."""
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env, start_new_session=True)

    def wait_ready(self, timeout_s: float = 60.0) -> int:
        """Block until the listening banner appears; returns the port."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            marker = "listening on "
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("server did not print its banner in time")

    def _session_pids(self) -> List[int]:
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    fields = handle.read().rsplit(b")", 1)[1].split()
            except OSError:
                continue
            # fields[0] is the state, fields[3] the session id.
            if fields[0] != b"Z" and int(fields[3]) == self.process.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sizes of every live process of the
        server's session (server, pool workers, fleet nodes)."""
        total_kb = 0
        for pid in self._session_pids():
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def toggle_spans(self) -> None:
        """Switch a :mod:`launch`-started server's span recording."""
        self.process.send_signal(signal.SIGUSR2)
        time.sleep(0.01)  # let the server's main thread take the signal

    def dump_spans(self, path: Path, timeout_s: float = 30.0) -> None:
        """Have a :mod:`launch`-started server write its spans."""
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout_s
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not write its spans")
            time.sleep(0.01)

    def stop(self, grace_s: float = 5.0, timeout_s: float = 30.0) -> None:
        """Interrupt the server, give it *grace_s* to exit, then kill and
        wait out whatever is left of its session.

        The grace is short because a fleet gateway that has served
        load sometimes waits about 30 s for its node to exit.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(grace_s)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._log.close()
        deadline = time.perf_counter() + timeout_s
        while self._session_pids():
            if time.perf_counter() > deadline:
                raise RuntimeError("server session did not exit")
            time.sleep(0.05)


def _request(cpu, workload, strategy, offset, seed, n_cores=1):
    from repro.service.request import SimRequest

    return SimRequest(cpu=cpu, workload=workload, strategy=strategy,
                      voltage_offset=offset, seed=seed, n_cores=n_cores)


def serve_stream(seed: int, connection: int) -> Iterator:
    """Connection *connection*'s requests: one fresh request (a seed no
    other request uses: trace synthesis, simulation and a cache write)
    then two repeats of this connection's earlier fresh requests, which
    have completed and so read the result cache.

    Fresh requests go through every (CPU, workload, strategy, offset)
    mix once per round of 80, in an order shuffled by the seed, so every
    run has the same mix; CPU A runs ``fV`` and ``V`` on four cores.
    """
    rng = random.Random(f"serve_mixed:{seed}:{connection}")
    mix = [(cpu, workload, strategy, offset) for cpu in ("A", "C")
           for workload in CHEAP_WORKLOADS for strategy in STRATEGIES
           for offset in OFFSETS]
    fresh = []
    # Below 2**31, clear of the warm-up seeds.
    base = ((seed % 1000) * CONNECTIONS + connection) * 1_000_000
    while True:
        rng.shuffle(mix)
        for cpu, workload, strategy, offset in mix:
            n_cores = 4 if cpu == "A" and strategy in ("fV", "V") else 1
            fresh.append(_request(cpu, workload, strategy, offset,
                                  base + len(fresh), n_cores))
            yield fresh[-1]
            for _ in range(2):
                yield rng.choice(fresh)


def gateway_stream(seed: int, connection: int) -> Iterator:
    """A fixed cycle of cheap ``e`` requests, one CPU per connection."""
    cpu = ("A", "C")[connection % 2]
    cycle = [_request(cpu, workload, "e", -0.097, seed)
             for workload in GATEWAY_WORKLOADS]
    while True:
        yield from cycle


def warmup_stream(connection: int) -> Iterator:
    """Requests outside every measured stream (seeds no stream uses)."""
    for i in range(4):
        yield _request(("A", "C")[i % 2], CHEAP_WORKLOADS[i], "fV", -0.097,
                       2**31 - 1 - CONNECTIONS * i - connection)


async def closed_loop(port: int, streams: List[Iterator], *,
                      seconds: float = math.inf,
                      min_requests: int = 0) -> dict:
    """Each stream on its own connection, one request in flight each,
    until the streams end or *seconds* have passed and *min_requests*
    completed."""
    from repro.service.client import ServiceClient

    clients = [await ServiceClient.connect("127.0.0.1", port)
               for _ in streams]
    records: List[List[tuple]] = [[] for _ in streams]
    done = [0]
    started = time.perf_counter()

    async def drive(i: int) -> None:
        while (time.perf_counter() - started < seconds
               or done[0] < min_requests):
            request = next(streams[i], None)
            if request is None:
                return
            t0 = time.perf_counter()
            try:
                response = await clients[i].submit(request)
                error = None
            except (ConnectionError, OSError, ValueError) as exc:
                response, error = None, repr(exc)
            records[i].append((request, response, time.perf_counter() - t0,
                               error))
            done[0] += 1
            if error is not None:
                return

    try:
        await asyncio.gather(*(drive(i) for i in range(len(streams))))
        window = (started, time.perf_counter())
        status = None
        try:
            status = await clients[0].fleet_status()
        except ValueError:
            pass  # not a gateway
    finally:
        for client in clients:
            await client.close()
    return {"records": records, "window": window, "fleet_status": status}


def check(records: List[List[tuple]], seed: int,
          sample: int = REFERENCE_SAMPLE) -> tuple:
    """(failed, problems): every response ok and echoing its request, and
    a sample of payloads equal to the in-process ``run_profile``."""
    from repro.testkit.oracle import DifferentialOracle

    failed, problems = 0, []
    by_key: Dict[str, list] = {}
    for request, response, _, error in (r for rs in records for r in rs):
        if response is None or not response.ok:
            failed += 1
            detail = error or f"{response.status}: {response.error}"
            problems.append(f"{request.canonical_dict()}: {detail[-300:]}")
            continue
        if response.request.canonical_dict() != request.canonical_dict():
            failed += 1
            problems.append(f"{request.canonical_dict()}: response echoes "
                            f"{response.request.canonical_dict()}")
            continue
        by_key.setdefault(request.canonical_key(), []).append(response)
    keys = sorted(by_key)
    sampled = random.Random(seed).sample(keys, min(sample, len(keys)))
    if not sampled:
        return failed, problems
    requests = [by_key[key][0].request for key in sampled]
    references = DifferentialOracle(requests).reference()
    for key, req, reference in zip(sampled, requests, references):
        for response in by_key[key]:
            if response.payload != reference:
                failed += 1
                problems.append(f"{req.canonical_dict()}: payload differs "
                                f"from run_profile ({response.source})")
    return failed, problems


class Phase:
    """Start a server (optionally traced), warm it, measure, stop it."""

    def __init__(self, workload: str, env: Dict[str, str], out_dir: Path,
                 name: str, spans_path: Optional[Path] = None) -> None:
        """Prepare one server run under *out_dir* / *name*."""
        self.workload = workload
        self.env = env
        self.dir = out_dir / name
        self.dir.mkdir(parents=True)
        self.spans_path = spans_path
        args = list(SERVE_ARGS if workload == "serve_mixed" else GATEWAY_ARGS)
        if workload == "serve_mixed":
            args += ["--cache-dir", str(self.dir / "cache")]
        if spans_path is not None:
            here = Path(__file__).resolve().parent
            self.argv = [sys.executable, str(here / "launch.py"),
                         str(spans_path)] + args
        else:
            self.argv = [sys.executable, "-m", "repro"] + args
        self.server: Optional[Server] = None

    def start(self, seed: int) -> float:
        """Start and warm the server; returns the set-up seconds."""
        t0 = time.perf_counter()
        self.server = Server(self.argv, self.env, self.dir / "server.log")
        try:
            self.port = self.server.wait_ready()
            warm = ([warmup_stream(c) for c in range(CONNECTIONS)]
                    if self.workload == "serve_mixed" else
                    [itertools.islice(gateway_stream(seed, c), 8)
                     for c in range(CONNECTIONS)])
            out = asyncio.run(closed_loop(self.port, warm))
            failed, problems = check(out["records"], seed, sample=0)
            if failed:
                raise RuntimeError("warm-up failed: " + "; ".join(problems))
        except BaseException:
            self.server.stop()
            raise
        return time.perf_counter() - t0

    def _streams(self, seed: int) -> List[Iterator]:
        make = (serve_stream if self.workload == "serve_mixed"
                else gateway_stream)
        return [make(seed, c) for c in range(CONNECTIONS)]

    def measure(self, seed: int, seconds: float) -> dict:
        """One closed loop of the workload's streams against the server
        (serve_mixed: at least :data:`SERVE_MIN_REQUESTS` requests)."""
        minimum = SERVE_MIN_REQUESTS if self.workload == "serve_mixed" else 0
        return asyncio.run(closed_loop(self.port, self._streams(seed),
                                       seconds=seconds, min_requests=minimum))

    def measure_traced(self, seed: int, seconds: float) -> List[tuple]:
        """The streams in :data:`TRACE_WINDOWS` windows that alternate
        untraced and traced, switching the :mod:`launch`-started
        server's recording between windows, so that slow phases of
        the host fall on both kinds alike.  Returns ``(traced, loop
        result)`` per window."""
        streams = self._streams(seed)
        windows = []
        for k in range(TRACE_WINDOWS):
            if k:
                self.server.toggle_spans()
            windows.append((k % 2 == 1, asyncio.run(closed_loop(
                self.port, streams, seconds=seconds / TRACE_WINDOWS))))
        return windows

    def stop(self) -> float:
        """Stop the server (a traced one writes its spans first);
        returns the peak RSS of its session."""
        assert self.server is not None
        rss = self.server.peak_rss_mb()
        try:
            if self.spans_path is not None:
                self.server.dump_spans(self.spans_path)
        finally:
            self.server.stop()
        return rss
