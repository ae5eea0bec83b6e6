"""The open-loop generator: seeded schedules, latency from the due time."""

import asyncio

import numpy as np

from benchmarks.e2e import loadgen


def test_schedule_is_determined_by_its_seed():
    first = loadgen.poisson_schedule(100.0, 500, seed=7)
    again = loadgen.poisson_schedule(100.0, 500, seed=7)
    other = loadgen.poisson_schedule(100.0, 500, seed=8)
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first, other)
    assert len(first) == 500
    assert np.all(np.diff(first) > 0)
    # Mean gap of a 100/s process is 10 ms.
    assert 0.008 < first[-1] / 500 < 0.012


async def _slow_server(delay: float):
    """HTTP server answering every request ``delay`` seconds late."""

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    name, _, value = line.partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                await reader.readexactly(length)
                await asyncio.sleep(delay)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except asyncio.IncompleteReadError:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_charges_the_wait_for_a_connection():
    async def scenario():
        server = await _slow_server(0.05)
        port = server.sockets[0].getsockname()[1]
        try:
            # Two requests due at once over one connection: the second
            # cannot be sent until the first answer is back.
            return await loadgen.open_loop(
                "127.0.0.1", port, [("/x", b"{}"), ("/x", b"{}")],
                [0.0, 0.0], connections=1,
            )
        finally:
            server.close()
            await server.wait_closed()

    first, second = asyncio.run(scenario())
    assert first.status == second.status == 200
    assert first.latency >= 0.05
    assert second.sent - second.due >= 0.045
    assert second.latency >= 0.1


def test_closed_loop_runs_until_its_deadline():
    async def scenario():
        server = await _slow_server(0.01)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.closed_loop(
                "127.0.0.1", port, [("/x", b"{}")], connections=2,
                seconds=0.2,
            )
        finally:
            server.close()
            await server.wait_closed()

    outcomes = asyncio.run(scenario())
    span = max(o.done for o in outcomes) - min(o.sent for o in outcomes)
    assert span >= 0.2
    assert all(o.status == 200 for o in outcomes)
    # Two clients at ~10 ms per request for 0.2 s.
    assert 10 <= len(outcomes) <= 60
