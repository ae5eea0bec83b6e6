"""Multi-process serving fleet: a supervisor and N forked workers.

One asyncio :class:`~repro.serve.server.EstimationServer` process is
bounded by one GIL; the fleet scales the serve layer the way *Hardware
Accelerated Power Estimation* scales evaluation units — by replication.
The supervisor:

* resolves the listen port and picks a socket-sharing strategy —
  ``SO_REUSEPORT`` (each worker binds its own socket; the kernel load
  balances connections across them) with a fallback to one
  supervisor-bound listening socket inherited by every worker through
  ``fork()``;
* optionally **pre-warms** the model tier from a warmup manifest
  (:mod:`repro.serve.warmup`) *before* forking, so every worker inherits
  the warm in-memory registry copy-on-write and no request ever pays
  characterization latency;
* forks N workers (``multiprocessing`` *fork* context — the fleet is a
  Unix feature), each running the unchanged asyncio server on the shared
  port plus a control thread answering the supervisor over a pipe;
* aggregates per-worker ``/metrics`` pages into one fleet-wide
  Prometheus exposition with a ``worker`` label
  (:class:`FleetMetricsServer` serves it over HTTP for scrapers);
* supervises shutdown: a ``stop`` command per worker triggers the
  server's deadline-enforcing drain, stragglers are terminated.

The single-process assumptions this package used to tolerate (shared
in-process metrics, pid-stamped temp files, import-time env gates) are
exactly what the fleet flushes out; see the PR-7 bugfixes in
``registry``, ``runtime.cache`` and ``circuit.native``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from .metrics import aggregate_expositions
from .registry import ModelRegistry

__all__ = [
    "FleetMetricsServer",
    "ServeFleet",
    "WorkerSpec",
]

#: Listen backlog per worker socket (matches asyncio's default ballpark).
LISTEN_BACKLOG = 128


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs beyond the (inherited) registry."""

    worker_id: int
    host: str
    port: int
    drain_timeout: float = 30.0
    server_options: Dict[str, Any] = field(default_factory=dict)


def _reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound (not yet listening) ``SO_REUSEPORT`` TCP socket.

    Raises ``OSError`` when the platform lacks the option — the caller
    falls back to the inherited-socket strategy.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        raise OSError("SO_REUSEPORT not available on this platform")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


def _worker_main(spec, registry, inherited_sock, conn):  # pragma: no cover
    """Worker entry point (runs in the forked child).

    Covered by the fleet integration tests in ``tests/serve`` rather than
    in-process coverage: it only ever executes post-fork.
    """
    import asyncio

    from .server import EstimationServer

    # Per-worker determinism/identity: the env gate re-reads in
    # repro.circuit.native and the at-fork hooks in runtime.cache have
    # already adjusted inherited state; nothing else is pid-coupled.
    if inherited_sock is not None:
        sock = inherited_sock
    else:
        sock = _reuseport_socket(spec.host, spec.port)
        sock.listen(LISTEN_BACKLOG)
    options = dict(spec.server_options)
    # Streaming sessions are worker-owned state: the worker id goes into
    # every session id (wrong-worker accesses clean-reject with a hint)
    # and a configured drain snapshot becomes per-worker so two workers
    # never clobber each other's file.
    options.setdefault("worker_id", spec.worker_id)
    snapshot_path = options.get("session_snapshot_path")
    if snapshot_path:
        options["session_snapshot_path"] = (
            f"{snapshot_path}.w{spec.worker_id}"
        )
    server = EstimationServer(registry, sock=sock, **options)

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass

        def control() -> None:
            # Supervisor protocol: one request, one reply, in order.
            try:
                while True:
                    message = conn.recv()
                    if message == "metrics":
                        conn.send(server.metrics.render())
                    elif message == "healthz":
                        conn.send({
                            "worker": spec.worker_id,
                            "pid": os.getpid(),
                            **server._healthz(),
                        })
                    elif message == "stop":
                        conn.send("stopping")
                        loop.call_soon_threadsafe(stop.set)
                        return
            except (EOFError, OSError):
                # Supervisor died: drain rather than serve headless.
                loop.call_soon_threadsafe(stop.set)

        threading.Thread(
            target=control, name=f"fleet-ctl-{spec.worker_id}", daemon=True
        ).start()
        conn.send({
            "ready": True,
            "worker": spec.worker_id,
            "pid": os.getpid(),
            "port": server.port,
        })
        await stop.wait()
        await server.drain(spec.drain_timeout)

    asyncio.run(main())


@dataclass
class _Worker:
    worker_id: int
    process: Any
    conn: Any
    lock: threading.Lock = field(default_factory=threading.Lock)


class ServeFleet:
    """Supervisor for N forked estimation-server workers on one port.

    Args:
        registry: The (ideally pre-warmed) model registry every worker
            inherits through ``fork()``.  Warm it first — e.g. with
            :func:`repro.serve.warmup.warm_registry` — and the workers
            share the materialized tier copy-on-write.
        host/port: Shared bind address; port 0 resolves an ephemeral
            port before the workers start (``fleet.port`` reports it).
        workers: Number of worker processes.
        server_options: Keyword arguments forwarded to each worker's
            :class:`~repro.serve.server.EstimationServer` (``max_queue``,
            ``jobs``, ``max_batch``, ``batch_wait``, ...).
        drain_timeout: Per-worker graceful-drain budget on stop.

    Usage::

        fleet = ServeFleet(registry, workers=4)
        with fleet:                 # start() ... stop()
            ... serve on fleet.port ...
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        server_options: Optional[Dict[str, Any]] = None,
        drain_timeout: float = 30.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "the serving fleet requires fork(); use a single "
                "EstimationServer on this platform"
            )
        self.registry = registry
        self.host = host
        self.port = int(port)
        self.n_workers = int(workers)
        self.server_options = dict(server_options or {})
        self.drain_timeout = float(drain_timeout)
        self.strategy: Optional[str] = None  # "reuseport" | "inherited"
        self._placeholder: Optional[socket.socket] = None
        self._listen_sock: Optional[socket.socket] = None
        self._workers: List[_Worker] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 120.0) -> "ServeFleet":
        """Resolve the port, fork the workers, wait for readiness."""
        if self._started:
            raise RuntimeError("fleet already started")
        context = multiprocessing.get_context("fork")
        try:
            # Reserve/resolve the port without listening: a bound
            # non-listening SO_REUSEPORT socket keeps the port ours but
            # receives no connections, so every accept goes to a worker.
            self._placeholder = _reuseport_socket(self.host, self.port)
            self.port = self._placeholder.getsockname()[1]
            self.strategy = "reuseport"
        except OSError:
            # Fallback: one supervisor-bound listening socket inherited
            # by every worker through fork; the kernel then shares the
            # single accept queue instead of hashing across sockets.
            self._listen_sock = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._listen_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listen_sock.bind((self.host, self.port))
            self._listen_sock.listen(LISTEN_BACKLOG)
            self.port = self._listen_sock.getsockname()[1]
            self.strategy = "inherited"

        for worker_id in range(self.n_workers):
            parent_conn, child_conn = context.Pipe()
            spec = WorkerSpec(
                worker_id=worker_id,
                host=self.host,
                port=self.port,
                drain_timeout=self.drain_timeout,
                server_options=self.server_options,
            )
            process = context.Process(
                target=_worker_main,
                args=(spec, self.registry, self._listen_sock, child_conn),
                name=f"serve-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(worker_id, process, parent_conn))

        deadline = timeout
        for worker in self._workers:
            try:
                if not worker.conn.poll(deadline):
                    raise RuntimeError(
                        f"worker {worker.worker_id} not ready within "
                        f"{timeout}s"
                    )
                ready = worker.conn.recv()
            except (EOFError, OSError) as exc:
                self.stop(timeout=5.0)
                raise RuntimeError(
                    f"worker {worker.worker_id} died during startup"
                ) from exc
            if not (isinstance(ready, dict) and ready.get("ready")):
                self.stop(timeout=5.0)
                raise RuntimeError(
                    f"worker {worker.worker_id} sent a bad ready message: "
                    f"{ready!r}"
                )
        self._started = True
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain every worker, then terminate stragglers."""
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send("stop")
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []
        for sock in (self._placeholder, self._listen_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._placeholder = self._listen_sock = None
        self._started = False

    def __enter__(self) -> "ServeFleet":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def worker_pids(self) -> List[int]:
        return [
            w.process.pid for w in self._workers if w.process.pid is not None
        ]

    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.process.is_alive())

    def _ask(self, worker: _Worker, message: str, timeout: float):
        """One request/reply exchange with a worker; None on any failure."""
        with worker.lock:
            if not worker.process.is_alive():
                return None
            try:
                worker.conn.send(message)
                if worker.conn.poll(timeout):
                    return worker.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                return None
        return None

    def scrape(self, timeout: float = 5.0) -> Dict[int, str]:
        """Per-worker ``/metrics`` pages, keyed by worker id."""
        pages: Dict[int, str] = {}
        for worker in self._workers:
            page = self._ask(worker, "metrics", timeout)
            if isinstance(page, str):
                pages[worker.worker_id] = page
        return pages

    def metrics_text(self) -> str:
        """The fleet-wide Prometheus exposition.

        Every worker series gains a ``worker`` label; the supervisor
        contributes its own ``repro_fleet_*`` gauges on top.
        """
        pages = {str(wid): page for wid, page in self.scrape().items()}
        supervisor = [
            "# HELP repro_fleet_workers Configured worker processes.",
            "# TYPE repro_fleet_workers gauge",
            f"repro_fleet_workers {self.n_workers}",
            "# HELP repro_fleet_workers_alive Workers currently alive.",
            "# TYPE repro_fleet_workers_alive gauge",
            f"repro_fleet_workers_alive {self.alive_workers()}",
            "# HELP repro_fleet_workers_scraped Workers answering the "
            "last metrics scrape.",
            "# TYPE repro_fleet_workers_scraped gauge",
            f"repro_fleet_workers_scraped {len(pages)}",
        ]
        return "\n".join(supervisor) + "\n" + aggregate_expositions(pages)

    def healthz(self, timeout: float = 5.0) -> Dict[str, Any]:
        """Fleet health rollup: supervisor view plus per-worker reports."""
        reports = []
        for worker in self._workers:
            report = self._ask(worker, "healthz", timeout)
            if isinstance(report, dict):
                reports.append(report)
            else:
                reports.append({
                    "worker": worker.worker_id,
                    "status": (
                        "unreachable" if worker.process.is_alive()
                        else "dead"
                    ),
                })
        status = "ok" if all(
            r.get("status") == "ok" for r in reports
        ) and len(reports) == self.n_workers else "degraded"
        return {
            "status": status,
            "strategy": self.strategy,
            "port": self.port,
            "workers": reports,
        }

    def worker_request_counts(self) -> Dict[int, float]:
        """Total HTTP requests answered per worker (from `/metrics`).

        The fleet test's load-spread assertion reads this; operators get
        the same numbers from the ``worker`` label on
        ``serve_requests_total``.
        """
        counts: Dict[int, float] = {}
        for worker_id, page in self.scrape().items():
            total = 0.0
            for line in page.splitlines():
                if line.startswith("serve_requests_total{"):
                    try:
                        total += float(line.rsplit(" ", 1)[1])
                    except (IndexError, ValueError):
                        pass
            counts[worker_id] = total
        return counts


class FleetMetricsServer:
    """A tiny HTTP endpoint serving the supervisor's aggregated views.

    ``GET /metrics`` returns :meth:`ServeFleet.metrics_text` (Prometheus
    text with the ``worker`` label); ``GET /healthz`` the fleet health
    rollup.  Runs on its own daemon thread — the supervisor process has
    no asyncio loop to share.
    """

    def __init__(self, fleet: ServeFleet, host: str = "127.0.0.1",
                 port: int = 0):
        self.fleet = fleet
        self.host = host
        self.port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "FleetMetricsServer":
        fleet = self.fleet

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                if self.path == "/metrics":
                    body = fleet.metrics_text().encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/healthz":
                    body = json.dumps(fleet.healthz()).encode()
                    ctype = "application/json"
                else:
                    self.send_error(404, "no route for %s" % self.path)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="fleet-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "FleetMetricsServer":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
