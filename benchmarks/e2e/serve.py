"""Serving workloads: a ``repro-power serve`` subprocess driven over HTTP.

* ``serve_trace`` sends 24-row ``bits``/``streams`` estimate requests for
  two warm models, open loop at a fixed Poisson rate, then closed loop to
  measure capacity.
* ``serve_stream`` runs streaming sessions of 512-row appends, closed
  loop, one session per connection.

The server is started fresh (``--no-cache --warmup``) several times; each
start, from spawn to ``/healthz`` answering 200 with the models warm, is
one set-up sample.  The load comes from this process over at most ``nproc``
keep-alive connections, with every request body built before timing.
Answers are checked afterwards against the same models built in-process
through ``repro.Session`` with the server's ``--patterns``/``--seed``.

With ``--trace 1`` the measured time is split in two halves: the first
untraced (``/metrics`` deltas, client timings), the second with
``X-Repro-Trace: 1`` so every answer carries the server's spans.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Session
from repro.circuit.native import native_kernel, native_status
from repro.eval.harness import ExperimentConfig

from benchmarks.e2e import accuracy, loadgen, procfs, spans, stats

HOST = "127.0.0.1"
MANIFEST = Path(__file__).with_name("warmup.json")
#: Models the server warms (the manifest's entries).
MODELS = (("csa_multiplier", 16), ("ripple_adder", 16))
STREAM_MODEL = ("csa_multiplier", 16)
#: The serve CLI's default characterization budget and seed.  The seed is
#: fixed so every run serves the same models; ``--seed`` picks payloads,
#: arrival times and session plans.
PATTERNS = 2000
SERVER_SEED = 0
#: Load never uses more connections than there are CPUs (and at most 2).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
TOLERANCE = 1e-9
TRACE_HEADER = {"X-Repro-Trace": "1"}

TRACE_ROWS = 24
TRACE_PAYLOADS = 256
#: Offered open-loop rate, under a third of capacity: here the
#: micro-batcher's wait window, not queueing, sets the latency.  Every
#: workload reports one latency pair, so there is one rate; the closed-loop
#: phase measures the saturated end.  At 100 req/s the CPUs idle between
#: requests and the median moved by 15% from run to run; at 200 it holds.
RATE = 200.0
#: Share of ``--seconds`` spent open loop; the rest measures capacity.
OPEN_SHARE = 0.36
#: Open-loop latencies are summarized per window of this many requests
#: (p90: ten beyond it in each), then medianed over windows.  A p99 over
#: 1500 requests at 100 req/s moved by 20% between runs.
TRACE_WINDOW = 100
#: Generator lateness above which a run is flagged invalid.
LAG_LIMIT_MS = 2.0

SEGMENT_ROWS = 512
SEGMENTS_PER_SESSION = 100
SEGMENT_POOL = 32
SESSION_PLANS = 1000
#: Append latencies are summarized per window of this many appends (p99:
#: ten beyond it in each); a run always completes at least one window.
APPEND_WINDOW = 1000


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro-power serve`` subprocess, healthy on return."""

    def __init__(self, root: Path, env: Dict[str, str], build: Path,
                 seed: int):
        self.port = _free_port()
        self._stderr = tempfile.TemporaryFile(dir=build)
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", HOST,
             "--port", str(self.port), "--no-cache",
             "--warmup", str(MANIFEST), "--patterns", str(PATTERNS),
             "--seed", str(seed)],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        try:
            self._wait_healthy(started + 120.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                self._stderr.seek(0)
                tail = self._stderr.read()[-2000:].decode(errors="replace")
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {tail}"
                )
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.005)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, float]:
        """The ``/metrics`` page as ``{"name{labels}": value}``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                values[key] = float(value)
        return values

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()


def start_warm(root: Path, env: Dict[str, str], build: Path, seed: int,
               starts: int) -> Tuple[Server, List[float]]:
    """Start the server ``starts`` times; keep the last one running."""
    samples = []
    for attempt in range(starts):
        server = Server(root, env, build, seed)
        samples.append(server.setup_s)
        if attempt < starts - 1:
            server.stop()
    return server, samples


def delta(before: Dict[str, float], after: Dict[str, float],
          key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def server_mean_ms(before, after, endpoints: Sequence[str]) -> float:
    """Mean server-side request time over ``endpoints`` between scrapes."""
    total = sum(delta(before, after,
                      f'serve_request_seconds_sum{{endpoint="{e}"}}')
                for e in endpoints)
    count = sum(delta(before, after,
                      f'serve_request_seconds_count{{endpoint="{e}"}}')
                for e in endpoints)
    return total / count * 1e3 if count else 0.0


def batching(before, after) -> Dict[str, float]:
    """Mean batch size and timer-triggered share of flushes."""
    flushes = delta(before, after, "serve_batch_size_count")
    if not flushes:
        return {"serve.batch_size_mean": 0.0, "serve.timer_flush_ratio": 0.0}
    return {
        "serve.batch_size_mean":
            delta(before, after, "serve_batch_size_sum") / flushes,
        "serve.timer_flush_ratio": delta(
            before, after, 'serve_batch_flush_total{reason="timeout"}'
        ) / flushes,
    }


def traced_spans(bodies: Iterable[bytes]) -> List[List[dict]]:
    """Span records of every traced answer."""
    return [
        spans.from_chrome(json.loads(body)["trace"]["chrome"]["traceEvents"])
        for body in bodies
    ]


def span_mean_ms(traces: List[List[dict]], name: str) -> float:
    durations = [r["dur"] for records in traces for r in records
                 if r["name"] == name]
    return float(np.mean(durations)) * 1e3 if durations else 0.0


def codec_ms(bodies: Sequence[bytes], answers: Sequence[bytes]) -> float:
    """Mean cost of decoding a request body plus encoding an answer."""
    objects = [json.loads(a) for a in answers]
    started = time.perf_counter()
    for body in bodies:
        json.loads(body)
    middle = time.perf_counter()
    for obj in objects:
        json.dumps(obj)
    ended = time.perf_counter()
    return ((middle - started) / len(bodies)
            + (ended - middle) / len(objects)) * 1e3


def served_mismatches(
    answers: Iterable[Tuple[int, int, bytes]], expected: Sequence[float]
) -> List[str]:
    """Answers that failed or differ from the in-process estimate.

    ``answers`` holds ``(payload index, HTTP status, body)``.
    """
    problems = []
    for payload, status, body in answers:
        if status != 200:
            problems.append(f"payload {payload}: HTTP {status}")
            continue
        got = json.loads(body)["average_charge"]
        want = expected[payload]
        if abs(got - want) > TOLERANCE * max(1.0, abs(want)):
            problems.append(
                f"payload {payload}: served {got!r}, in-process {want!r}"
            )
    return problems


def model_error(session: Session, models) -> float:
    fitted = []
    for kind, width in models:
        served = session.registry().get(kind, width)
        fitted.append((served.module, served.estimator.model, None))
    return accuracy.mean_abs_error_pct(fitted)


# ----------------------------------------------------------------------
# serve_trace
# ----------------------------------------------------------------------
def trace_payloads(rng, session: Session):
    """Distinct request bodies and the in-process answer for each."""
    requests, expected = [], []
    for _ in range(TRACE_PAYLOADS):
        kind, width = MODELS[int(rng.integers(len(MODELS)))]
        module = session.registry().get(kind, width).module
        head = {"module": {"kind": kind, "width": width}}
        if rng.random() < 0.5:
            stream = rng.integers(0, 2, size=(TRACE_ROWS, module.input_bits))
            body, path = {**head, "bits": stream.tolist()}, "bits"
        else:
            half = 1 << (width - 1)
            stream = rng.integers(
                -half, half, size=(module.n_operands, TRACE_ROWS)
            ).tolist()
            body, path = {**head, "words": stream}, "streams"
        requests.append((f"/v1/estimate/{path}", json.dumps(body).encode()))
        expected.append(session.estimate(kind, width, stream).average_charge)
    return requests, expected


def run_trace(server: Server, session: Session, rng, seconds: float,
              trace: bool) -> dict:
    pool, expected = trace_payloads(rng, session)
    n_open = max(1, round(RATE * OPEN_SHARE * seconds))
    due = loadgen.poisson_schedule(RATE, n_open, int(rng.integers(2**31)))
    picks = [int(i) for i in rng.integers(len(pool), size=n_open)]

    def open_phase(lo, hi, headers=None):
        return asyncio.run(loadgen.open_loop(
            HOST, server.port, [pool[i] for i in picks[lo:hi]],
            due[lo:hi] - (due[lo - 1] if lo else 0.0), CONNECTIONS, headers,
        ))

    split = n_open // 2 if trace else n_open
    before = server.metrics()
    plain = open_phase(0, split)
    middle = server.metrics()
    traced = open_phase(split, n_open, TRACE_HEADER) if trace else []
    cpu = procfs.cpu_seconds(server.proc.pid)
    capacity = asyncio.run(loadgen.closed_loop(
        HOST, server.port, pool, CONNECTIONS,
        seconds * (1.0 - OPEN_SHARE),
    ))
    cpu = procfs.cpu_seconds(server.proc.pid) - cpu
    peak_rss = procfs.peak_rss_mb(str(server.proc.pid))

    lag_ms = [(o.woke - o.due) * 1e3 for o in plain]
    lag_p99 = float(np.percentile(lag_ms, 99))
    answers = [(picks[o.index], o.status, o.body) for o in plain]
    answers += [(picks[split + o.index], o.status, o.body) for o in traced]
    answers += [(o.index % len(pool), o.status, o.body) for o in capacity]
    errors = served_mismatches(answers, expected)
    out = {
        "attempted": len(answers),
        "failed": sum(1 for _, status, _ in answers if status != 200),
        "errors": errors,
        "detail": {
            "open_loop_requests": n_open,
            "rate_per_s": RATE,
            "capacity_requests": len(capacity),
            "lag_p99_ms": lag_p99,
            "valid": lag_p99 <= LAG_LIMIT_MS,
        },
    }
    if not trace:
        latency = stats.summarize(
            [o.latency * 1e3 for o in plain],
            stats.tail_percentile(TRACE_WINDOW), TRACE_WINDOW,
        )
        out["detail"]["latency_ms"] = latency
        first = min(o.sent for o in capacity)
        out["e2e"] = {
            "throughput_per_s": stats.median_rate(
                [o.done - first for o in capacity],
                max(o.done for o in capacity) - first,
            ),
            "latency_p50_ms": latency["p50"],
            "latency_tail_ms": latency["tail"],
            "model_error_pct": model_error(session, MODELS),
            "peak_rss_mb": peak_rss,
            "success_ratio": 1.0 - out["failed"] / len(answers),
        }
        return out

    sent_plain = [(o.done - o.sent) * 1e3 for o in plain]
    sent_traced = [(o.done - o.sent) * 1e3 for o in traced]
    traces = traced_spans(o.body for o in traced)
    out["per_layer"] = {
        "loadgen.lag_p99_ms": lag_p99,
        "loadgen.conn_wait_p50_ms": float(np.median(
            [(o.sent - o.woke) * 1e3 for o in plain]
        )),
        "serve.server_mean_ms.bits": server_mean_ms(before, middle,
                                                    ["bits"]),
        "serve.server_mean_ms.streams": server_mean_ms(before, middle,
                                                       ["streams"]),
        "serve.outside_ms": float(np.median(sent_plain))
        - server_mean_ms(before, middle, ["bits", "streams"]),
        "serve.flush_mean_ms": span_mean_ms(traces, "batch.flush"),
        **batching(before, middle),
        "serve.cpu_ms_per_req": cpu / len(capacity) * 1e3,
        "serve.codec_ms": codec_ms(
            [body for _, body in pool],
            [o.body for o in capacity[:len(pool)] if o.status == 200],
        ),
        "obs.attributed_fraction": spans.attributed_fraction(
            traces, sum(sent_traced) / 1e3
        ),
        "obs.trace_overhead": float(np.median(sent_traced)
                                    / np.median(sent_plain) - 1.0),
    }
    return out


# ----------------------------------------------------------------------
# serve_stream
# ----------------------------------------------------------------------
@dataclass
class SessionRun:
    """One streaming session as the client saw it."""

    plan: int
    statuses: List[int] = field(default_factory=list)
    #: ``(sent, done)`` monotonic times of each append.
    append_times: List[Tuple[float, float]] = field(default_factory=list)
    append_bodies: List[bytes] = field(default_factory=list)
    final: Optional[bytes] = None


async def run_sessions(port: int, plans: Sequence[Sequence[int]],
                       bodies: Sequence[bytes], seconds: float,
                       min_appends: int,
                       headers: Optional[Dict[str, str]] = None
                       ) -> Tuple[List[SessionRun], float]:
    """Run sessions back to back on ``CONNECTIONS`` connections.

    New sessions start until ``seconds`` have passed and at least
    ``min_appends`` appends are done; started sessions always finish.
    """
    kind, width = STREAM_MODEL
    create = json.dumps({"module": {"kind": kind, "width": width}}).encode()
    cursor = iter(range(len(plans)))
    runs: List[SessionRun] = []
    appended = 0
    started = time.monotonic()
    deadline = started + seconds

    async def client():
        nonlocal appended
        conn = await loadgen.Connection.open(HOST, port)
        try:
            while time.monotonic() < deadline or appended < min_appends:
                plan = next(cursor, None)
                if plan is None:
                    return
                run = SessionRun(plan)
                runs.append(run)
                status, body = await conn.request("POST", "/v1/sessions",
                                                  create)
                run.statuses.append(status)
                if status != 201:
                    continue
                path = f"/v1/sessions/{json.loads(body)['session_id']}"
                for segment in plans[plan]:
                    t0 = time.monotonic()
                    status, body = await conn.request(
                        "POST", path + "/append", bodies[segment], headers
                    )
                    run.append_times.append((t0, time.monotonic()))
                    run.statuses.append(status)
                    run.append_bodies.append(body)
                    appended += 1
                status, run.final = await conn.request("DELETE", path)
                run.statuses.append(status)
        finally:
            await conn.close()

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return runs, time.monotonic() - started


def session_mismatches(runs: Sequence[SessionRun],
                       offline: Dict[int, float]) -> List[str]:
    """Sessions that failed or whose final estimate differs from offline.

    ``offline`` maps a plan index to the one-shot estimate of its
    concatenated segments.
    """
    problems = []
    for run in runs:
        bad = [s for s in run.statuses if s not in (200, 201)]
        if bad or run.final is None:
            problems.append(f"session plan {run.plan}: HTTP {bad}")
            continue
        got = json.loads(run.final)["average_charge"]
        want = offline[run.plan]
        if abs(got - want) > TOLERANCE * max(1.0, abs(want)):
            problems.append(
                f"session plan {run.plan}: final {got!r}, offline {want!r}"
            )
    return problems


def run_stream(server: Server, session: Session, rng, seconds: float,
               trace: bool) -> dict:
    kind, width = STREAM_MODEL
    input_bits = session.registry().get(kind, width).module.input_bits
    segments = [
        rng.integers(0, 2, size=(SEGMENT_ROWS, input_bits)).astype(bool)
        for _ in range(SEGMENT_POOL)
    ]
    bodies = [json.dumps({"bits": s.astype(np.uint8).tolist()}).encode()
              for s in segments]
    plans = rng.integers(SEGMENT_POOL,
                         size=(SESSION_PLANS, SEGMENTS_PER_SESSION))

    half = seconds / 2 if trace else seconds
    floor = APPEND_WINDOW // 5 if trace else APPEND_WINDOW
    before = server.metrics()
    cpu = procfs.cpu_seconds(server.proc.pid)
    plain, _ = asyncio.run(
        run_sessions(server.port, plans, bodies, half, floor)
    )
    cpu = procfs.cpu_seconds(server.proc.pid) - cpu
    middle = server.metrics()
    traced: List[SessionRun] = []
    if trace:
        traced, _ = asyncio.run(run_sessions(
            server.port, plans[len(plain):], bodies, half, floor,
            TRACE_HEADER,
        ))
        for run in traced:
            run.plan += len(plain)
    peak_rss = procfs.peak_rss_mb(str(server.proc.pid))

    runs = plain + traced
    offline = {
        run.plan: session.estimate(
            kind, width, np.vstack([segments[i] for i in plans[run.plan]])
        ).average_charge
        for run in runs
    }
    attempted = sum(len(run.statuses) for run in runs)
    failed = sum(1 for run in runs for s in run.statuses
                 if s not in (200, 201))
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": session_mismatches(runs, offline),
        "detail": {"sessions": len(runs)},
    }
    times = sorted(t for run in plain for t in run.append_times)
    appends = [(done - sent) * 1e3 for sent, done in times]
    if not trace:
        latency = stats.summarize(
            appends, stats.tail_percentile(APPEND_WINDOW), APPEND_WINDOW
        )
        out["detail"]["latency_ms"] = latency
        first = min(sent for sent, _ in times)
        out["e2e"] = {
            "throughput_per_s": SEGMENT_ROWS * stats.median_rate(
                [done - first for _, done in times],
                max(done for _, done in times) - first,
            ),
            "latency_p50_ms": latency["p50"],
            "latency_tail_ms": latency["tail"],
            "model_error_pct": model_error(session, [STREAM_MODEL]),
            "peak_rss_mb": peak_rss,
            "success_ratio": 1.0 - failed / attempted,
        }
        return out

    traced_appends = [(done - sent) * 1e3 for run in traced
                      for sent, done in run.append_times]
    traces = traced_spans(b for run in traced for b in run.append_bodies)
    handle = session.stream(kind, width)
    started = time.perf_counter()
    for segment in segments:
        handle.append(segment)
    inproc_ms = (time.perf_counter() - started) / len(segments) * 1e3
    out["per_layer"] = {
        "serve.server_mean_ms.session_append": server_mean_ms(
            before, middle, ["session_append"]
        ),
        "serve.outside_ms": float(np.median(appends)) - server_mean_ms(
            before, middle, ["session_append"]
        ),
        **batching(before, middle),
        "serve.cpu_ms_per_req": cpu / len(appends) * 1e3,
        "serve.codec_ms": codec_ms(bodies, plain[0].append_bodies),
        "core.append_inproc_ms": inproc_ms,
        "session.append_span_ms": span_mean_ms(traces, "session.append"),
        "obs.attributed_fraction": spans.attributed_fraction(
            traces, sum(traced_appends) / 1e3
        ),
        "obs.trace_overhead": float(np.median(traced_appends)
                                    / np.median(appends) - 1.0),
    }
    return out


WORKLOADS = {"serve_trace": run_trace, "serve_stream": run_stream}


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, env: Dict[str, str], build: Path, starts: int) -> dict:
    """Run one serving workload; the result shape matches ``char.run``."""
    rng = np.random.default_rng(seed)
    native_kernel()
    # The configuration `serve --patterns PATTERNS --seed SERVER_SEED` uses.
    session = Session(config=ExperimentConfig(n_characterization=PATTERNS,
                                              seed=SERVER_SEED))
    server, setup = start_warm(root, env, build, SERVER_SEED, starts)
    try:
        out = WORKLOADS[workload](server, session, rng, seconds, trace)
    finally:
        server.stop()
    out["setup_s"] = setup
    out["detail"]["native_status"] = native_status()
    return out
