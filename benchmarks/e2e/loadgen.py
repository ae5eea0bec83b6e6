"""Open-loop and closed-loop HTTP load over a few keep-alive connections.

The generator is deliberately independent of ``repro.serve.loadgen``: that
one synthesizes payloads inside its timed loop, and the benchmark must not
change when the program's own tooling does.  Here every request body is
built before timing starts, an open-loop request is timed from the moment
it was *due* (so a stall is charged to every request it delays, not only
the one it hit), and the generator reports how late it ran.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: One prepared request: ``(path, body bytes)``.
Request = Tuple[str, bytes]


def poisson_schedule(rate: float, count: int, seed: int) -> np.ndarray:
    """Due times (seconds from phase start) of ``count`` Poisson arrivals.

    A fixed count rather than a fixed duration keeps the sample count, and
    with it the reported tail percentile, the same for every seed.  The
    same ``(rate, count, seed)`` always gives the same schedule.
    """
    if rate <= 0 or count < 1:
        raise ValueError("rate must be positive and count at least 1")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class Outcome:
    """One finished request, all times in seconds on the monotonic clock.

    ``due`` is when the schedule wanted it sent (``None`` in a closed
    loop), ``woke`` when the generator got to it, ``sent`` when a
    connection was free and the bytes went out, ``done`` when the response
    was read.  ``status`` is 0 when the connection failed.
    """

    index: int
    due: Optional[float]
    woke: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from the due time to the answer (open loop)."""
        return self.done - self.due


class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None
                      ) -> Tuple[int, bytes]:
        head = [f"{method} {path} HTTP/1.1", "Host: bench",
                "Connection: keep-alive"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        if body:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await self.writer.drain()
        header_block = await self.reader.readuntil(b"\r\n\r\n")
        lines = header_block.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _send(conn: Connection, index: int, request: Request,
                due: Optional[float], woke: float,
                headers: Optional[Dict[str, str]]) -> Outcome:
    path, body = request
    sent = time.monotonic()
    try:
        status, payload = await conn.request("POST", path, body, headers)
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        status, payload = 0, b""
    return Outcome(index, due, woke, sent, time.monotonic(), status, payload)


async def open_loop(host: str, port: int, requests: Sequence[Request],
                    due_offsets: Sequence[float], connections: int,
                    headers: Optional[Dict[str, str]] = None
                    ) -> List[Outcome]:
    """Send ``requests[i]`` at ``due_offsets[i]`` over ``connections``.

    A request whose time has come waits for a free connection; that wait
    and the generator's own lateness both count in its latency.
    """
    if len(requests) != len(due_offsets):
        raise ValueError("one due time per request")
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    ready: asyncio.Queue = asyncio.Queue()
    conns = [await Connection.open(host, port) for _ in range(connections)]
    for conn in conns:
        free.put_nowait(conn)
    start = time.monotonic() + 0.05
    stop = threading.Event()

    def tick():
        # The event loop's timers wake up to a millisecond late (epoll
        # rounds its timeout up); a sleeping thread wakes within tens of
        # microseconds and hands each due request to the loop.
        for index, offset in enumerate(due_offsets):
            delay = start + float(offset) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if stop.is_set():
                return
            loop.call_soon_threadsafe(ready.put_nowait, index)

    async def run_one(index, woke):
        conn = await free.get()  # FIFO: requests keep their order
        try:
            return await _send(conn, index, requests[index],
                               start + float(due_offsets[index]), woke,
                               headers)
        finally:
            free.put_nowait(conn)

    ticker = threading.Thread(target=tick, name="loadgen-ticker")
    ticker.start()
    tasks = []
    try:
        for _ in range(len(due_offsets)):
            index = await ready.get()
            tasks.append(asyncio.create_task(run_one(index, time.monotonic())))
        return list(await asyncio.gather(*tasks))
    finally:
        stop.set()
        ticker.join()
        for conn in conns:
            await conn.close()


async def closed_loop(host: str, port: int, requests: Sequence[Request],
                      connections: int, seconds: float) -> List[Outcome]:
    """Cycle through ``requests`` back-to-back for ``seconds``.

    Each of ``connections`` clients sends its next request as soon as the
    previous answer arrives.
    """
    conns = [await Connection.open(host, port) for _ in range(connections)]
    outcomes: List[Outcome] = []
    counter = iter(range(1 << 62))
    deadline = time.monotonic() + seconds

    async def client(conn):
        while time.monotonic() < deadline:
            index = next(counter)
            outcomes.append(await _send(
                conn, index, requests[index % len(requests)], None,
                time.monotonic(), None,
            ))

    try:
        await asyncio.gather(*(client(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.close()
    return outcomes
