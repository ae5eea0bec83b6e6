"""Shared serving-layer fixtures and socket-test helpers.

Characterization is the expensive part, so a single ripple_adder/4 model
(300 patterns) is materialized once and shared by the batching and server
tests; registry-behavior tests build their own registries.

This module is the serving tests' one HTTP client:

* :func:`http_request` — one keep-alive HTTP/1.1 exchange over an open
  asyncio connection;
* :func:`request_raw` / :func:`request_once` — one synchronous request
  over a fresh loopback connection, returning the raw or the decoded
  body (the common case for assertions);
* :func:`burst` — ``n`` concurrent POSTs over keep-alive connections,
  returning the answers' status counts;
* :func:`estimate_bodies` — seeded requests mixing the four estimate
  families;
* :func:`free_port` — an OS-assigned ephemeral port, for the rare test
  that must know its port *before* binding (servers normally bind port 0
  and read it back);
* :data:`SOCKET_TIMEOUT` — the per-test deadline socket-test modules
  apply via ``pytest.mark.timeout``; enforced when pytest-timeout is
  installed (CI), inert locally without the plugin.
"""

import asyncio
import json
import os
import socket
from collections import Counter

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.modules.library import make_module
from repro.serve import ModelRegistry
from repro.signals.encoding import signed_range

SERVE_CONFIG = ExperimentConfig(n_characterization=300, seed=5)

#: Per-test deadline for tests that move real bytes over loopback
#: sockets; generous because CI machines stall, but finite so a deadlock
#: fails the test instead of hanging the suite.
SOCKET_TIMEOUT = 60

#: Marks tests that fork fleet workers.
needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fleet requires fork()"
)


def free_port() -> int:
    """An ephemeral TCP port that was free a moment ago."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def http_request(reader, writer, method, path, body=None,
                       headers=None):
    """One keep-alive HTTP/1.1 exchange; returns ``(status, raw body)``."""
    head = [f"{method} {path} HTTP/1.1", "Host: test",
            "Connection: keep-alive"]
    head += [f"{name}: {value}" for name, value in (headers or {}).items()]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + (body or b""))
    await writer.drain()
    header_block = await reader.readuntil(b"\r\n\r\n")
    lines = header_block.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    return status, (await reader.readexactly(length) if length else b"")


def _encode(payload):
    if payload is None or isinstance(payload, bytes):
        return payload
    return json.dumps(payload).encode()


def request_raw(port, method, path, payload=None, headers=None):
    """One exchange over a fresh loopback connection.

    ``payload`` is JSON-encoded unless it is already ``bytes`` (sent as
    is, for malformed bodies).  Returns ``(status, raw body bytes)``.
    """
    async def go():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await http_request(
                reader, writer, method, path, _encode(payload),
                headers=headers,
            )
        finally:
            writer.close()

    return asyncio.run(go())


def request_once(port, method, path, payload=None, headers=None):
    """Like :func:`request_raw`, with the body JSON-decoded when it looks
    like JSON, else the raw text."""
    status, raw = request_raw(port, method, path, payload, headers)
    decoded = json.loads(raw) if raw.startswith(b"{") else raw.decode()
    return status, decoded


def burst(port, bodies, n, concurrency):
    """POST ``n`` requests cycling through ``(path, payload)`` ``bodies``
    from ``concurrency`` keep-alive connections.

    Returns a :class:`~collections.Counter` of response statuses.  A
    transport error (refused, reset, timed out) propagates, so a passing
    burst had none.
    """
    encoded = [(path, _encode(payload)) for path, payload in bodies]

    async def run():
        counts = Counter()
        indices = iter(range(n))

        async def worker():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for index in indices:
                    path, body = encoded[index % len(encoded)]
                    status, _ = await asyncio.wait_for(
                        http_request(reader, writer, "POST", path, body),
                        SOCKET_TIMEOUT,
                    )
                    counts[status] += 1
            finally:
                writer.close()

        await asyncio.gather(*(worker() for _ in range(concurrency)))
        return counts

    return asyncio.run(run())


ESTIMATE_FAMILIES = ("bits", "streams", "distribution", "analytic")


def estimate_bodies(kind, width, n=16, rows=16, seed=3,
                    families=ESTIMATE_FAMILIES):
    """``n`` seeded ``(path, payload)`` estimate requests for one model,
    cycling through ``families``; trace requests carry ``rows`` rows."""
    module = make_module(kind, width)
    rng = np.random.default_rng(seed)
    bodies = []
    for index in range(n):
        family = families[index % len(families)]
        payload = {"kind": kind, "width": width}
        if family == "bits":
            payload["bits"] = rng.integers(
                0, 2, size=(rows, module.input_bits)
            ).tolist()
        elif family == "streams":
            payload["words"] = [
                rng.integers(*signed_range(operand_width), endpoint=True,
                             size=rows).tolist()
                for _, operand_width in module.operand_specs
            ]
        elif family == "distribution":
            pmf = rng.random(module.input_bits + 1)
            payload["distribution"] = (pmf / pmf.sum()).tolist()
        else:
            payload["operand_stats"] = [
                {"mean": float(rng.uniform(-10, 10)),
                 "variance": float(rng.uniform(1, 200)),
                 "rho": float(rng.uniform(-0.9, 0.9))}
                for _ in module.operand_specs
            ]
        bodies.append((f"/v1/estimate/{family}", payload))
    return bodies


def request_full(port, method, path, payload=None):
    """Like :func:`request_once` but also returns the response headers
    (session tests assert on ``X-Repro-Owner-Worker`` / ``Retry-After``)."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        extra = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body, extra)
        response = conn.getresponse()
        raw = response.read()
        decoded = json.loads(raw) if raw.startswith(b"{") else raw.decode()
        return response.status, decoded, dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture(scope="session")
def serve_registry():
    return ModelRegistry(config=SERVE_CONFIG, cache=None)


@pytest.fixture(scope="session")
def served_adder4(serve_registry):
    return serve_registry.get("ripple_adder", 4)
