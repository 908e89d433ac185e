"""The shared JSON-lines frame loop and the one task teardown.

* A peer that resets its connection mid-stream is EOF to the loop
  that serves node and gateway alike: nothing reaches asyncio's
  "Unhandled exception in client_connected_cb" log, and the server
  keeps answering new connections.  An op table that raises still
  gets its frame answered.
* Tearing a background task down never eats the caller's own
  cancellation, and finishes even when the task swallowed one cancel.
* A client closed while it reconnects installs no connection, nor does
  a gateway pool connect that finishes after its node left, and a
  fleet soak with forward faults leaves no task behind.
* A frame over the stream limit is answered with an error and the
  connection keeps serving.
"""

import asyncio
import json
import logging
import socket
import struct
import time

import pytest

from repro.fleet import (
    FleetGateway,
    FleetSoak,
    FleetSoakConfig,
    GatewayConfig,
    NodeConfig,
    NodeSupervisor,
)
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SimulationService,
    start_tcp_server,
)


async def _node_target():
    service = SimulationService(ServiceConfig(n_shards=1,
                                              use_processes=False))
    await service.start()
    return service, service.stop


async def _gateway_target():
    supervisor = NodeSupervisor(NodeConfig(in_process=True))
    gateway = FleetGateway(GatewayConfig())
    handle = await supervisor.spawn()
    gateway.add_node(handle.name, handle.host, handle.port)

    async def teardown():
        await gateway.close()
        await supervisor.stop_all(drain=False)

    return gateway, teardown


async def _reset_after(port: int, frames: bytes) -> None:
    """Send one ping (and read its pong, so the server has read a
    frame), then *frames*, then reset the connection (RST, not FIN)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "ping", "id": 0}\n')
    await writer.drain()
    assert b'"pong"' in await reader.readline()
    writer.write(frames)
    await writer.drain()
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    writer.transport.abort()


class TestPeerReset:
    @pytest.mark.parametrize("make_target", [_node_target, _gateway_target],
                             ids=["node", "gateway"])
    def test_reset_is_eof(self, make_target, caplog):
        # A slow submit is in flight when the reset lands: its reply
        # has nowhere to go and must be dropped quietly.
        slow = (b'{"op": "submit", "id": 1, "request": {"cpu": "A", '
                b'"workload": "__sleep__:0.2"}}\n{"op": "ping", "id": 2}\n')

        async def scenario():
            target, teardown = await make_target()
            connections: set = set()
            server = await start_tcp_server(target, port=0,
                                            connections=connections)
            port = server.sockets[0].getsockname()[1]
            try:
                await _reset_after(port, slow)
                deadline = time.monotonic() + 5.0
                await asyncio.sleep(0.05)
                while connections and time.monotonic() < deadline:
                    await asyncio.sleep(0.02)
                drained = not connections
                client = await ServiceClient.connect("127.0.0.1", port)
                try:
                    pong = await client.ping()
                finally:
                    await client.close()
                return drained, pong
            finally:
                server.close()
                await server.wait_closed()
                await teardown()

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            drained, pong = asyncio.run(scenario())
        assert drained, "the reset connection's handler never finished"
        assert pong["op"] == "pong"
        errors = [r.getMessage() for r in caplog.records
                  if r.name == "asyncio" and r.levelno >= logging.ERROR]
        assert errors == []


class TestOversizeFrame:
    @pytest.mark.parametrize("make_target", [_node_target, _gateway_target],
                             ids=["node", "gateway"])
    def test_frame_over_the_stream_limit_is_answered(self, make_target):
        # One frame past the 64 KiB stream limit, then a normal frame:
        # the first is answered with an error, the second still gets
        # its pong on the same connection.
        frames = (b'{"op": "ping", "id": 1, "pad": "' + b"x" * 70_000
                  + b'"}\n{"op": "ping", "id": 2}\n')

        async def scenario():
            target, teardown = await make_target()
            server = await start_tcp_server(target, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(frames)
                await writer.drain()
                return [await asyncio.wait_for(reader.readline(), 5.0)
                        for _ in range(2)]
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                await teardown()

        too_long, pong = asyncio.run(scenario())
        assert too_long == b'{"op": "error", "error": "frame too long"}\n'
        pong = json.loads(pong)
        assert (pong["op"], pong["id"]) == ("pong", 2)


class TestInternalError:
    def test_a_raising_op_table_still_answers(self):
        class Broken:
            async def answer(self, message):
                raise RuntimeError("boom")

        async def scenario():
            server = await start_tcp_server(Broken(), port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b'{"op": "ping", "id": 7}\n')
                await writer.drain()
                return await asyncio.wait_for(reader.readline(), 5.0)
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        # A handler on the module logger itself: another test's logging
        # setup may stop "repro" records from reaching the root logger.
        records = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = records.append
        server_logger = logging.getLogger("repro.service.server")
        server_logger.addHandler(handler)
        try:
            line = asyncio.run(scenario())
        finally:
            server_logger.removeHandler(handler)
        assert line == (b'{"op": "error", "error": "internal error: '
                        b'RuntimeError(\'boom\')", "id": 7}\n')
        assert [r.exc_info[0] for r in records] == [RuntimeError]


async def _swallow_one_cancel():
    """A task body with the bug under test: some callee ate a cancel."""
    try:
        await asyncio.sleep(60)
    except asyncio.CancelledError:
        pass
    while True:
        await asyncio.sleep(0.01)


class _NullWriter:
    def write(self, data):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


class TestCancellation:
    def test_cancel_while_closing_a_client_propagates(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            client = ServiceClient(asyncio.StreamReader(), _NullWriter())
            client._reader_task.cancel()
            stubborn = loop.create_task(_swallow_one_cancel())
            client._reader_task = stubborn
            await asyncio.sleep(0)
            closer = loop.create_task(client.close())
            await asyncio.sleep(0.01)
            closer.cancel()
            try:
                await closer
                outcome = "returned"
            except asyncio.CancelledError:
                outcome = "cancelled"
            stubborn.cancel()
            await asyncio.wait((stubborn,), timeout=1.0)
            return outcome

        assert asyncio.run(scenario()) == "cancelled"

    def test_gateway_close_survives_a_swallowed_cancel(self):
        async def scenario():
            gateway = FleetGateway(GatewayConfig())
            gateway._health_loop = _swallow_one_cancel
            await gateway.start()
            await asyncio.sleep(0.01)
            started = time.monotonic()
            await asyncio.wait_for(gateway.close(), 2.0)
            return time.monotonic() - started, gateway._health_task

        elapsed, task = asyncio.run(scenario())
        assert elapsed < 2.0
        assert task is None


class TestNoLeaks:
    def test_close_during_reconnect_installs_nothing(self, monkeypatch):
        async def scenario():
            accepted = []
            server = await asyncio.start_server(
                lambda r, w: accepted.append(w), "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            gate = asyncio.Event()
            real_open = asyncio.open_connection

            async def held_open(*args, **kwargs):
                await gate.wait()
                return await real_open(*args, **kwargs)

            monkeypatch.setattr(asyncio, "open_connection", held_open)
            reconnect = asyncio.get_running_loop().create_task(
                client._reconnect(client._generation))
            await asyncio.sleep(0.01)
            await client.close()
            gate.set()
            await reconnect
            readers = [task for task in asyncio.all_tasks()
                       if "_read_loop" in repr(task.get_coro())]
            for writer in accepted:
                writer.close()
            server.close()
            await server.wait_closed()
            return readers

        assert asyncio.run(scenario()) == []

    @pytest.mark.parametrize("leave", ["remove_node", "close"])
    def test_node_gone_during_pool_connect_leaks_nothing(self, monkeypatch,
                                                         leave):
        async def scenario():
            supervisor = NodeSupervisor(NodeConfig(in_process=True))
            gateway = FleetGateway(GatewayConfig())
            handle = await supervisor.spawn()
            gateway.add_node(handle.name, handle.host, handle.port)
            state = gateway._nodes[handle.name]
            gate = asyncio.Event()
            real_connect = ServiceClient.connect

            async def held_connect(*args, **kwargs):
                await gate.wait()
                return await real_connect(*args, **kwargs)

            monkeypatch.setattr(ServiceClient, "connect", held_connect)
            pick = asyncio.get_running_loop().create_task(
                gateway._client(state))
            await asyncio.sleep(0.01)
            if leave == "remove_node":
                await gateway.remove_node(handle.name)
            else:
                await gateway.close()
            gate.set()
            with pytest.raises(ConnectionError):
                await pick
            readers = [task for task in asyncio.all_tasks()
                       if "_read_loop" in repr(task.get_coro())]
            await gateway.close()
            await supervisor.stop_all(drain=False)
            return readers, state.clients

        readers, pool = asyncio.run(scenario())
        assert readers == []
        assert pool == []

    def test_forward_fault_soak_leaves_no_tasks(self):
        config = FleetSoakConfig(seed=3, n_nodes=3, n_requests=6, bursts=3,
                                 kill_node=False, forward_fault_rate=0.2,
                                 require_all_ok=False)

        async def once():
            result = await FleetSoak(config).run()
            me = asyncio.current_task()
            leftover = [task for task in asyncio.all_tasks()
                        if task is not me]
            return result, leftover

        for _ in range(5):
            result, leftover = asyncio.run(once())
            assert result.wrong_answers == 0
            assert leftover == [], [repr(t) for t in leftover]
