"""Asyncio JSON-over-HTTP estimation server (stdlib only).

The online half of the characterize-once/evaluate-many contract: models
materialize through the :class:`~repro.serve.registry.ModelRegistry`
(memory → disk cache → characterize → width regression) and queries are
answered by cheap Hd-class lookups and analytic DBT statistics on the
event loop, trace requests coalesced per model and loop tick by the
:class:`~repro.serve.batching.MicroBatcher`.

Endpoints (protocol reference: docs/SERVING.md):

==========================  ====================================================
``GET  /healthz``           liveness + queue/model/session gauges
``GET  /metrics``           Prometheus text exposition
``GET  /v1/models``         resident models + servable kinds
``POST /v1/estimate/bits``          trace estimation of a 0/1 row matrix
``POST /v1/estimate/streams``       trace estimation of per-operand words
``POST /v1/estimate/distribution``  Section 6.3 Hd-distribution estimation
``POST /v1/estimate/analytic``      Eq. 18 DBT estimation from (μ, σ², ρ)
``POST   /v1/sessions``             open a streaming estimation session
``POST   /v1/sessions/{id}/append`` feed a segment; running estimate back
``GET    /v1/sessions/{id}``        read the running estimate
``DELETE /v1/sessions/{id}``        finalize: final estimate, state freed
==========================  ====================================================

Operational behavior:

* **Backpressure** — at most ``max_queue`` estimation requests are
  admitted at once; the rest get ``429`` with a ``Retry-After`` header
  instead of unbounded queueing.  Warm estimates and appends finish in
  their own tick, so the slots are held by requests waiting on a model
  load or session create.
* **Deadlines** — a model load or session create waits at most
  ``request_timeout`` seconds; expiry answers ``504 deadline_exceeded``.
* **Validation** — malformed requests get structured
  ``{"error": {"code", "message"}}`` bodies, never stack traces.
* **Graceful drain** — SIGTERM/SIGINT stops accepting, answers ``503``
  to new estimation work, flushes pending batches and waits for
  in-flight requests before exiting.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket as socket_module
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Set, Tuple

import numpy as np

from ..modules.library import module_kinds
from ..modules.spec import UnknownModuleError, resolve_spec
from ..obs import tracing
from ..obs.export import request_trace
from .batching import MicroBatcher, streams_to_bits
from .body import BodyError, decode_body
from .metrics import ServeMetrics
from .registry import (
    CharacterizationFailed,
    ModelRegistry,
    RegistryError,
    UnknownKindError,
)
from .sessions import (
    DEFAULT_MAX_SESSION_ROWS,
    DEFAULT_MAX_SESSIONS,
    DEFAULT_TTL_SECONDS,
    SessionBudgetError,
    SessionStore,
    UnknownSessionError,
    WrongWorkerError,
    bit_matrix,
)

#: Hard cap on request body size (bits matrices can be bulky but bounded).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Hard cap on trace rows per request; longer traces should be chunked
#: client-side (the per-request results are averages anyway).
MAX_TRACE_ROWS = 65536
#: Header-block read limit.
MAX_HEADER_BYTES = 32 * 1024

_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class ApiError(Exception):
    """A structured client-visible failure."""

    def __init__(self, status: int, code: str, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers or {}

    def body(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message}}


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, Any]:
        """The body's JSON object, a canonical ``bits`` value decoded to
        a bool matrix (:func:`~repro.serve.body.decode_body`)."""
        try:
            return decode_body(self.body)
        except BodyError as error:
            raise ApiError(400, "bad_request", str(error))


#: Response header marking the deprecated top-level addressing fields
#: (RFC 8594 style); see docs/API.md "Module addressing".
_DEPRECATION_HEADER = {"Deprecation": "true"}


def _parse_module(payload: Dict[str, Any]) -> Tuple[str, int, bool, list]:
    """Module addressing shared by estimation and session-create routes.

    Returns ``(kind, width, enhanced, deprecations)``.  Two request
    shapes are accepted (docs/API.md "Module addressing"):

    * the unified ``module`` object —
      ``{"module": {"kind", "width", "params", "enhanced"}}`` — where
      ``kind`` may be a bare library kind or a canonical variant spec
      string and ``params`` an optional parameter object.  Validation
      goes through the spec layer: an unknown family or bad parameter
      answers a structured ``400 unknown_module`` with near-miss
      suggestions, and every spelling canonicalizes before it reaches
      the registry.
    * the legacy top-level ``kind``/``width``/``enhanced`` fields —
      still accepted, parsed byte-identically (unknown bare kinds keep
      their legacy ``404 unknown_kind``), and flagged deprecated via the
      ``Deprecation`` response header.

    When both shapes appear in one request the ``module`` object wins
    and the ignored legacy fields are named in ``deprecations`` (which
    the caller folds into the response envelope).
    """
    if "module" not in payload:
        kind = payload.get("kind")
        width = payload.get("width")
        if not isinstance(kind, str):
            raise ApiError(400, "bad_request", "'kind' (string) required")
        if not isinstance(width, int) or isinstance(width, bool) or width < 1:
            raise ApiError(400, "bad_request",
                           "'width' (positive integer) required")
        return kind, width, bool(payload.get("enhanced", False)), []

    module = payload["module"]
    if not isinstance(module, dict):
        raise ApiError(
            400, "unknown_module",
            "'module' must be an object with 'kind', 'width' and "
            "optional 'params'/'enhanced'",
        )
    kind = module.get("kind")
    if not isinstance(kind, str):
        raise ApiError(400, "unknown_module",
                       "'module.kind' (string) required")
    width = module.get("width")
    if width is not None and (
        not isinstance(width, int) or isinstance(width, bool) or width < 1
    ):
        raise ApiError(400, "unknown_module",
                       "'module.width' must be a positive integer")
    params = module.get("params")
    if params is not None and not (
        isinstance(params, dict)
        and all(isinstance(name, str) for name in params)
    ):
        raise ApiError(
            400, "unknown_module",
            "'module.params' must be an object mapping parameter "
            "names to values",
        )
    try:
        resolved = resolve_spec(kind, width=width, params=params or None)
    except UnknownModuleError as error:
        raise ApiError(400, "unknown_module", str(error))
    if resolved.width is None:
        raise ApiError(
            400, "unknown_module",
            "'module.width' (positive integer) required "
            "(or a /width suffix on 'module.kind')",
        )
    deprecations = []
    stale = sorted(
        name for name in ("kind", "width", "enhanced") if name in payload
    )
    if stale:
        deprecations.append(
            "top-level " + ", ".join(repr(name) for name in stale)
            + " ignored: the 'module' object takes precedence; the "
            "legacy fields are deprecated (docs/API.md)"
        )
    return (
        resolved.kind,
        resolved.width,
        bool(module.get("enhanced", False)),
        deprecations,
    )


def _parse_calibration(payload: Dict[str, Any]):
    """Resolve optional ``node``/``vdd``/``f_clk`` request fields.

    Calibration is post-hoc: it never touches model lookup or registry
    keys, and requests without these fields get the identity calibration
    (responses byte-identical to the pre-calibration protocol).
    """
    from ..tech import Calibration

    node = payload.get("node")
    if node is not None and not isinstance(node, (str, int, float)):
        raise ApiError(400, "bad_request",
                       "'node' must be a technology node name")
    for key in ("vdd", "f_clk"):
        value = payload.get(key)
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            raise ApiError(400, "bad_request", f"'{key}' must be a number")
    try:
        return Calibration.from_spec(
            node=node, vdd=payload.get("vdd"), f_clk=payload.get("f_clk")
        )
    except ValueError as error:
        raise ApiError(400, "bad_request", str(error))


class EstimationServer:
    """The asyncio front-end wiring registry, batcher and metrics.

    Args:
        registry: Model registry (owns characterization provenance).
        batcher: Micro-batcher; a default one (sharing ``metrics``) is
            created when omitted.
        metrics: Shared metric set; defaults to the registry's.
        host/port: Bind address; port 0 picks an ephemeral port
            (``server.port`` reports the actual one after ``start``).
        sock: An already-bound listening socket to serve on instead of
            binding ``host:port`` — the serve-fleet workers pass their
            ``SO_REUSEPORT`` (or fork-inherited) socket here.
        max_queue: Admission limit on concurrent estimation requests.
        request_timeout: Per-request deadline in seconds.
        jobs: Worker threads for model loads, session creates and
            self-check sessions (warm estimates and plain session appends
            run on the event loop).
        worker_id: Fleet worker id (0 standalone) — embedded in session
            ids so a wrong-worker access clean-rejects with a hint.
        max_sessions/max_session_rows/session_ttl: Streaming-session
            budgets (429 past them) and idle expiry (docs/SERVING.md).
        session_snapshot_path: When set, ``drain()`` writes a bit-exact
            snapshot of every open session here and ``start()`` restores
            (and consumes) it — sessions survive a worker drain/restart.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        batcher: Optional[MicroBatcher] = None,
        metrics: Optional[ServeMetrics] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: Optional[socket_module.socket] = None,
        max_queue: int = 256,
        request_timeout: float = 30.0,
        jobs: int = 2,
        worker_id: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        max_session_rows: int = DEFAULT_MAX_SESSION_ROWS,
        session_ttl: float = DEFAULT_TTL_SECONDS,
        session_snapshot_path: Optional[str] = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.registry = registry
        self.metrics = metrics or registry.metrics
        self._load_pool = ThreadPoolExecutor(
            max_workers=max(1, jobs), thread_name_prefix="serve-load"
        )
        self.batcher = batcher or MicroBatcher(metrics=self.metrics)
        self.host = host
        self.port = port
        self._sock = sock
        self.max_queue = int(max_queue)
        self.request_timeout = float(request_timeout)
        self._server: Optional[asyncio.AbstractServer] = None
        self._in_flight = 0
        self._draining = False
        # Every open client connection, plus how many of them are mid
        # request (head read through response written): drain uses the
        # first to force-close stragglers and the second to know when it
        # is safe to do so without truncating a response in flight.
        self._connections: Set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._quiet = asyncio.Event()
        self._quiet.set()
        self.worker_id = int(worker_id)
        self.session_snapshot_path = session_snapshot_path
        self.sessions = SessionStore(
            resolver=self.registry.get,
            worker_id=self.worker_id,
            max_sessions=max_sessions,
            max_session_rows=max_session_rows,
            ttl_seconds=session_ttl,
            on_evict=self._note_session_evicted,
        )

    def _note_session_evicted(self, session_id: str, reason: str) -> None:
        self.metrics.sessions_closed_total.inc(reason=reason)
        self.metrics.sessions_open.set(len(self.sessions))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._restore_sessions()
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock,
                limit=MAX_HEADER_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=MAX_HEADER_BYTES,
            )
        name = self._server.sockets[0].getsockname()
        self.host, self.port = name[0], name[1]

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Start, then run until SIGTERM/SIGINT triggers a graceful drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without signals
        await stop.wait()
        await self.drain()

    async def drain(self, timeout: float = 30.0) -> None:
        """Stop accepting, flush batches, wait for in-flight work —
        then **enforce** the deadline.

        ``timeout`` bounds the whole drain: requests get until the
        deadline to finish naturally, after which every connection still
        open — stalled keep-alive clients included — is force-closed
        instead of being awaited indefinitely.  (``Server.wait_closed``
        alone would block on a client that simply never hangs up.)
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + float(timeout)
        if self._server is not None:
            self._server.close()
        self.batcher.drain()
        try:
            # Until the head of a request is read a connection is idle;
            # _quiet covers dispatch *and* the response write, so waiting
            # on it never abandons a response mid-flight.
            await asyncio.wait_for(
                self._quiet.wait(), max(0.0, deadline - loop.time())
            )
        except asyncio.TimeoutError:
            pass  # deadline passed with requests still running: cut them
        # In-flight appends have finished (or lost their deadline); the
        # per-session locks make the capture consistent regardless.
        self._snapshot_sessions()
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._server is not None:
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(),
                    max(0.1, deadline - loop.time()),
                )
            except asyncio.TimeoutError:
                pass
        self._load_pool.shutdown(wait=False)

    def _snapshot_sessions(self) -> None:
        """Persist open sessions on drain (when a path is configured)."""
        if self.session_snapshot_path is None or not len(self.sessions):
            return
        try:
            with open(self.session_snapshot_path, "w") as handle:
                json.dump(self.sessions.snapshot(), handle)
        except OSError:
            pass  # drain must not fail because the snapshot disk did

    def _restore_sessions(self) -> None:
        """Consume a drain snapshot left by a previous incarnation."""
        if self.session_snapshot_path is None:
            return
        try:
            with open(self.session_snapshot_path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return
        try:
            self.sessions.restore(data)
            self.metrics.sessions_open.set(len(self.sessions))
        finally:
            try:
                os.unlink(self.session_snapshot_path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _enter_request(self) -> None:
        self._busy += 1
        self._quiet.clear()

    def _exit_request(self) -> None:
        self._busy -= 1
        if self._busy == 0:
            self._quiet.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as error:
                    # The body's extent is unknown, so the stream cannot
                    # be resynchronized: answer and close.
                    self.metrics.requests_total.inc(
                        endpoint="other", status=str(error.status)
                    )
                    await self._write_response(
                        writer, error.status, error.body(), error.headers,
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                self._enter_request()
                try:
                    status, payload, extra = await self._dispatch(request)
                    keep_alive = (
                        request.headers.get(
                            "connection", "keep-alive"
                        ).lower() != "close" and not self._draining
                    )
                    await self._write_response(
                        writer, status, payload, extra, keep_alive
                    )
                finally:
                    self._exit_request()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        try:
            header_block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise ConnectionError("header block too large")
        try:
            head = header_block.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            raise ConnectionError("malformed request line")
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ApiError(
                400, "bad_request",
                f"Content-Length must be a non-negative integer, "
                f"got {declared[:32]!r}",
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, "too_large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(
            method=method.upper(), path=path, headers=headers, body=body
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, (bytes, str)):
            body = payload.encode() if isinstance(payload, str) else payload
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    _ESTIMATE_ROUTES = {
        "/v1/estimate/bits": "bits",
        "/v1/estimate/streams": "streams",
        "/v1/estimate/distribution": "distribution",
        "/v1/estimate/analytic": "analytic",
    }

    @staticmethod
    def _session_route(
        method: str, path: str
    ) -> Optional[Tuple[str, Optional[str]]]:
        """Match the session endpoints; ``(endpoint, session_id)`` or None.

        Session ids are path parameters, so this is the one place routing
        is positional rather than a dict lookup.
        """
        if not path.startswith("/v1/sessions"):
            return None
        rest = path[len("/v1/sessions"):]
        if rest in ("", "/"):
            return ("session_create", None) if method == "POST" else None
        parts = rest.lstrip("/").split("/")
        if len(parts) == 1 and parts[0]:
            if method == "GET":
                return "session_get", parts[0]
            if method == "DELETE":
                return "session_delete", parts[0]
            return None
        if (len(parts) == 2 and parts[0] and parts[1] == "append"
                and method == "POST"):
            return "session_append", parts[0]
        return None

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, Any, Dict[str, str]]:
        traced = request.headers.get("x-repro-trace", "").lower() not in (
            "", "0", "false", "no",
        )
        if not traced:
            return await self._dispatch_inner(request)
        # X-Repro-Trace: activate a trace for this request's lifetime.
        # contextvars flow into the awaited estimation path, and call_soon
        # carries them into the batcher's flush; model loads and session
        # creates (and self-check sessions) on the load pool are covered
        # by tracing.wrap in _load.
        with tracing.trace(
            "serve.request", method=request.method, path=request.path
        ) as ctx:
            status, payload, extra = await self._dispatch_inner(request)
        summary, chrome = request_trace(ctx)
        self.metrics.note_trace(summary)
        if isinstance(payload, dict):
            payload = dict(payload)
            payload["trace"] = {
                "trace_id": ctx.trace_id,
                "spans": summary,
                "chrome": chrome,
            }
        return status, payload, extra

    async def _dispatch_inner(
        self, request: _Request
    ) -> Tuple[int, Any, Dict[str, str]]:
        loop = asyncio.get_running_loop()
        started = loop.time()
        endpoint = "other"
        extra: Dict[str, str] = {}
        try:
            session_route = self._session_route(request.method, request.path)
            if session_route is not None:
                endpoint, session_id = session_route
                status, payload, *rest = await self._session(
                    endpoint, request, session_id
                )
                if rest:
                    extra.update(rest[0])
            elif request.method == "GET":
                if request.path == "/healthz":
                    endpoint = "healthz"
                    status, payload = 200, self._healthz()
                elif request.path == "/metrics":
                    endpoint = "metrics"
                    status, payload = 200, self.metrics.render()
                elif request.path == "/v1/models":
                    endpoint = "models"
                    status, payload = 200, self._models()
                else:
                    raise ApiError(404, "not_found",
                                   f"no route for {request.path}")
            elif request.method == "POST":
                endpoint = self._ESTIMATE_ROUTES.get(request.path, "other")
                if endpoint == "other":
                    raise ApiError(404, "not_found",
                                   f"no route for {request.path}")
                status, payload, extra_est = await self._estimate(
                    endpoint, request
                )
                extra.update(extra_est)
            else:
                raise ApiError(405, "method_not_allowed",
                               f"{request.method} not supported")
        except ApiError as error:
            status, payload = error.status, error.body()
            extra.update(error.headers)
            if error.code in ("queue_full", "draining"):
                self.metrics.rejected_total.inc(reason=error.code)
            elif error.code == "deadline_exceeded":
                self.metrics.rejected_total.inc(reason="deadline")
            elif error.code in (
                "session_budget", "session_rows_budget", "wrong_worker",
            ):
                self.metrics.rejected_total.inc(reason=error.code)
        except Exception as error:  # noqa: BLE001 — never leak a traceback
            status = 500
            payload = {"error": {
                "code": "internal",
                "message": f"{type(error).__name__}: {error}",
            }}
        self.metrics.requests_total.inc(
            endpoint=endpoint, status=str(status)
        )
        self.metrics.request_seconds.observe(
            loop.time() - started, endpoint=endpoint
        )
        return status, payload, extra

    # ------------------------------------------------------------------
    # Estimation endpoints
    # ------------------------------------------------------------------
    @contextmanager
    def _admitted(self) -> Iterator[None]:
        """Admission control shared by estimation and session endpoints.

        Draining answers 503 and a full queue 429 (identical semantics on
        every compute-bearing route); an admitted request holds one of
        the ``max_queue`` slots until it is answered.
        """
        if self._draining:
            raise ApiError(503, "draining", "server is draining",
                           {"Retry-After": "1"})
        if self._in_flight >= self.max_queue:
            raise ApiError(
                429, "queue_full",
                f"queue limit {self.max_queue} reached; retry later",
                {"Retry-After": "0.05"},
            )
        self._in_flight += 1
        self.metrics.in_flight.set(self._in_flight)
        try:
            yield
        finally:
            self._in_flight -= 1
            self.metrics.in_flight.set(self._in_flight)

    async def _load(self, fn, *args) -> Any:
        """Run a blocking model load, session create or self-check session
        operation on the load pool, under the per-request deadline (504
        past it).

        Executor threads do not inherit contextvars, so ``tracing.wrap``
        carries a traced request's context across.
        """
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(
                    self._load_pool, tracing.wrap(fn, *args)
                ),
                self.request_timeout,
            )
        except asyncio.TimeoutError:
            raise ApiError(
                504, "deadline_exceeded",
                f"request exceeded {self.request_timeout:.3f}s deadline",
            )

    async def _estimate(
        self, endpoint: str, request: _Request
    ) -> Tuple[int, Any, Dict[str, str]]:
        with tracing.span("serve.parse"):
            payload = request.json()
            kind, width, enhanced, deprecations = _parse_module(payload)
            calibration = _parse_calibration(payload)
        with self._admitted():
            served = await self._get_model(
                kind, width, enhanced, payload.get("mode", "auto")
            )
            if endpoint in ("bits", "streams"):
                with tracing.span("serve.parse"):
                    bits = self._parse_trace(endpoint, payload, served.module)
                result = await self.batcher.estimate_bits(served, bits)
            else:
                result = self._estimate_direct(endpoint, payload, served)

        with tracing.span("serve.respond"):
            body: Dict[str, Any] = {
                "average_charge": result.average_charge,
                "method": result.method,
                "model": served.name,
                "source": served.source,
                "input_bits": served.module.input_bits,
            }
            if result.cycle_charge is not None:
                body["n_cycles"] = int(len(result.cycle_charge))
                if payload.get("per_cycle"):
                    body["cycle_charge"] = result.cycle_charge.tolist()
            physical = calibration.physical_block(
                result.average_charge, netlist=served.module
            )
            if physical is not None:
                body["physical"] = physical
            if deprecations:
                body["deprecations"] = deprecations
        headers = {} if "module" in payload else dict(_DEPRECATION_HEADER)
        return 200, body, headers

    def _estimate_direct(self, endpoint: str, payload: Dict[str, Any],
                         served) -> Any:
        """The analytic endpoints: validated and answered inline."""
        if endpoint == "distribution":
            distribution = payload.get("distribution")
            if not isinstance(distribution, list) or not distribution:
                raise ApiError(400, "bad_request",
                               "'distribution' (list of floats) required")
            try:
                return self.batcher.estimate_distribution(
                    served, distribution
                )
            except (TypeError, ValueError) as error:
                raise ApiError(400, "bad_request", str(error))
        stats = payload.get("operand_stats")
        if (not isinstance(stats, list)
                or not all(isinstance(s, dict) for s in stats)):
            raise ApiError(
                400, "bad_request",
                "'operand_stats' must be a list of "
                "{mean, variance, rho} objects",
            )
        try:
            return self.batcher.estimate_analytic(
                served, stats,
                use_distribution=bool(payload.get("use_distribution", True)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ApiError(400, "bad_request",
                           f"invalid operand_stats: {error}")

    # ------------------------------------------------------------------
    # Streaming session endpoints (docs/SERVING.md "Streaming sessions")
    # ------------------------------------------------------------------
    async def _session(
        self, endpoint: str, request: _Request, session_id: Optional[str]
    ) -> Tuple:  # (status, body[, extra headers])
        if endpoint == "session_create":
            with tracing.span("serve.parse"):
                payload = request.json()
                kind, width, enhanced, deprecations = _parse_module(payload)
                try:
                    check_prefix = int(payload.get("check_prefix", 8))
                except (TypeError, ValueError, OverflowError):
                    raise ApiError(400, "bad_request",
                                   "'check_prefix' must be an integer")
                calibration = _parse_calibration(payload)
            with self._admitted():
                estimate = await self._load(
                    self._session_call, self.sessions.create,
                    kind, width,
                    enhanced,
                    payload.get("mode", "auto"),
                    bool(payload.get("self_check", False)),
                    check_prefix,
                    calibration,
                )
            self.metrics.sessions_created_total.inc()
            self.metrics.sessions_open.set(len(self.sessions))
            body = estimate.to_dict()
            if deprecations:
                body["deprecations"] = deprecations
            headers = (
                {} if "module" in payload else dict(_DEPRECATION_HEADER)
            )
            return 201, body, headers

        if endpoint == "session_append":
            with tracing.span("serve.parse"):
                rows = self._parse_segment(request.json())
            with self._admitted():
                estimate = await self._session_op(
                    self.sessions.append, session_id, rows
                )
            self.metrics.session_appends_total.inc()
            self.metrics.session_rows_total.inc(len(rows))
            with tracing.span("serve.respond"):
                return 200, estimate.to_dict()

        # get/finalize: accumulator reads, not admitted, but still
        # refused while draining (the snapshot owns the state then).
        if self._draining:
            raise ApiError(503, "draining", "server is draining",
                           {"Retry-After": "1"})
        if endpoint == "session_get":
            estimate = await self._session_op(self.sessions.get, session_id)
            return 200, estimate.to_dict()
        estimate = await self._session_op(self.sessions.finalize, session_id)
        self.metrics.sessions_closed_total.inc(reason="finalized")
        self.metrics.sessions_open.set(len(self.sessions))
        return 200, estimate.to_dict()

    async def _session_op(self, method, session_id: str, *args):
        """One SessionStore operation on ``session_id``.

        A plain session answers inline on the loop: an append costs less
        than decoding its body did, and its lock is only taken here.  A
        self-check session runs the pure-Python gate-level oracle on
        every append while holding its lock, so all of its operations go
        to the load pool under the deadline and the loop stays free.
        """
        if self.sessions.self_checking(session_id):
            return await self._load(
                self._session_call, method, session_id, *args
            )
        return self._session_call(method, session_id, *args)

    def _session_call(self, method, *args):
        """Run one SessionStore operation, mapping failures to ApiErrors."""
        try:
            return method(*args)
        except WrongWorkerError as error:
            raise ApiError(
                409, "wrong_worker", str(error),
                {"X-Repro-Owner-Worker": str(error.owner_worker)},
            )
        except UnknownSessionError as error:
            # KeyError reprs with quotes; unwrap to the message itself.
            raise ApiError(404, "unknown_session", str(error.args[0]))
        except SessionBudgetError as error:
            raise ApiError(429, error.reason, str(error),
                           {"Retry-After": "1"})
        except UnknownKindError as error:
            raise ApiError(404, "unknown_kind", str(error))
        except CharacterizationFailed as error:
            raise ApiError(500, "characterization_failed", str(error))
        except RegistryError as error:
            raise ApiError(400, "bad_request", str(error))
        except (TypeError, ValueError) as error:
            raise ApiError(400, "bad_request", str(error))

    async def _get_model(self, kind, width, enhanced, mode):
        """The model for a request: resident models are answered inline,
        only a miss waits on the load pool."""
        with tracing.span("serve.model"):
            try:
                served = self.registry.lookup(kind, width, enhanced, mode)
                if served is None:
                    served = await self._load(
                        self.registry.get, kind, width, enhanced, mode
                    )
            except UnknownKindError as error:
                raise ApiError(404, "unknown_kind", str(error))
            except CharacterizationFailed as error:
                raise ApiError(500, "characterization_failed", str(error))
            except RegistryError as error:
                raise ApiError(400, "bad_request", str(error))
        return served

    def _parse_trace(self, endpoint: str, payload: Dict[str, Any], module):
        """The ``[n >= 2, input_bits]`` bool matrix of a trace request."""
        if endpoint == "bits":
            return self._parse_bits(payload, module.input_bits)
        words = payload.get("words")
        if (not isinstance(words, list)
                or not all(isinstance(w, list) for w in words)):
            raise ApiError(
                400, "bad_request",
                "'words' must be a list of per-operand integer lists",
            )
        if words and any(len(w) > MAX_TRACE_ROWS for w in words):
            raise ApiError(413, "too_large",
                           f"trace longer than {MAX_TRACE_ROWS} words")
        try:
            bits = streams_to_bits(module, words)
        except ValueError as error:
            raise ApiError(400, "bad_request", str(error))
        if bits.shape[0] < 2:
            raise ApiError(400, "bad_request",
                           "'words' must hold >= 2 words per operand")
        return bits

    @staticmethod
    def _parse_segment(payload: Dict[str, Any]):
        """The ``bits`` of a session append: rows checked by the session."""
        rows = payload.get("bits")
        if not isinstance(rows, (list, np.ndarray)):
            raise ApiError(
                400, "bad_request",
                "'bits' must be a (possibly empty) list of 0/1 rows",
            )
        if len(rows) > MAX_TRACE_ROWS:
            raise ApiError(
                413, "too_large",
                f"segment longer than {MAX_TRACE_ROWS} rows",
            )
        return rows

    @staticmethod
    def _parse_bits(payload: Dict[str, Any], input_bits: int):
        """The ``[n >= 2, input_bits]`` bool matrix of a ``bits`` request."""
        rows = payload.get("bits")
        if not isinstance(rows, (list, np.ndarray)) or len(rows) < 2:
            raise ApiError(400, "bad_request",
                           "'bits' must be a list of >= 2 rows of 0/1")
        if len(rows) > MAX_TRACE_ROWS:
            raise ApiError(413, "too_large",
                           f"trace longer than {MAX_TRACE_ROWS} rows")
        try:
            return bit_matrix(rows, input_bits)
        except ValueError:
            raise ApiError(
                400, "bad_request",
                f"'bits' must be an [n, {input_bits}] 0/1 matrix for this "
                f"model",
            )

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "in_flight": self._in_flight,
            "open_connections": len(self._connections),
            "max_queue": self.max_queue,
            "models_loaded": len(self.registry),
            "pending_batched": self.batcher.pending_requests,
            "worker_id": self.worker_id,
            "sessions": self.sessions.stats(),
        }

    def _models(self) -> Dict[str, Any]:
        return {
            "loaded": self.registry.loaded(),
            "kinds": module_kinds(),
            "max_exact_width": self.registry.max_exact_width,
            "prototype_widths": list(self.registry.prototype_widths),
        }


class ServerThread:
    """Run an :class:`EstimationServer` on a dedicated event-loop thread.

    The embedding used by tests, smoke scripts and the benchmark: the
    caller's thread stays free to drive load while the server runs in the
    background.  ``stop()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(self, server: EstimationServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start in time")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._stop_event = asyncio.Event()

        async def main():
            await self.server.start()
            self._started.set()
            await self._stop_event.wait()
            await self.server.drain()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self) -> None:
        if (self._loop is None or self._thread is None
                or self._stop_event is None):
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
