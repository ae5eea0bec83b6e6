"""End-to-end server tests: real HTTP over loopback sockets.

One shared ``ServerThread`` (module scope) answers the happy-path tests;
backpressure and deadline behavior get dedicated short-lived servers.
No pytest-asyncio: the client side runs under ``asyncio.run``.
"""

import asyncio
import json
import re
import threading
import time

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.runtime import ModelCache
from repro.serve import EstimationServer, ModelRegistry, ServerThread
from repro.serve.server import MAX_BODY_BYTES, MAX_TRACE_ROWS

from .conftest import (
    SOCKET_TIMEOUT,
    burst,
    estimate_bodies,
    http_request,
    request_full,
    request_once as request,
    request_raw,
)

CONFIG = ExperimentConfig(n_characterization=300, seed=5)
KIND, WIDTH = "ripple_adder", 4

# Real sockets: bound the whole module so a wedged server fails loudly
# (enforced by pytest-timeout in CI; inert without the plugin).
pytestmark = pytest.mark.timeout(SOCKET_TIMEOUT)


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry(config=CONFIG, cache=None)
    instance = EstimationServer(registry, max_queue=64, jobs=2)
    with ServerThread(instance) as thread:
        # Materialize the model once so individual tests stay fast.
        registry.get(KIND, WIDTH)
        yield thread


def _bits(rows=16, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, 2 * WIDTH)).tolist()


def test_bits_endpoint_matches_direct_estimator(server):
    bits = _bits()
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": KIND, "width": WIDTH, "bits": bits,
    })
    assert status == 200
    direct = server.server.registry.get(
        KIND, WIDTH
    ).estimator.estimate_from_bits(np.asarray(bits))
    assert abs(answer["average_charge"] - direct.average_charge) <= 1e-9
    assert answer["method"] == "trace"
    assert answer["model"] == f"{KIND}/{WIDTH}"
    assert answer["source"] == "characterized"
    assert answer["n_cycles"] == len(bits) - 1
    assert "cycle_charge" not in answer


def test_bits_per_cycle_payload(server):
    bits = _bits(rows=6)
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": KIND, "width": WIDTH, "bits": bits, "per_cycle": True,
    })
    assert status == 200
    assert len(answer["cycle_charge"]) == 5
    assert answer["average_charge"] == pytest.approx(
        float(np.mean(answer["cycle_charge"]))
    )


def test_streams_endpoint(server):
    words = [[0, 3, -5, 7, -8], [1, -2, 6, -7, 4]]
    status, answer = request(server.port, "POST", "/v1/estimate/streams", {
        "kind": KIND, "width": WIDTH, "words": words,
    })
    assert status == 200
    assert answer["n_cycles"] == 4


def test_distribution_endpoint(server):
    pmf = [1.0 / 9] * 9  # 2*WIDTH inputs -> 9 Hd classes
    status, answer = request(
        server.port, "POST", "/v1/estimate/distribution",
        {"kind": KIND, "width": WIDTH, "distribution": pmf},
    )
    assert status == 200
    assert answer["method"] == "distribution"


def test_analytic_endpoint(server):
    status, answer = request(
        server.port, "POST", "/v1/estimate/analytic",
        {
            "kind": KIND, "width": WIDTH,
            "operand_stats": [
                {"mean": 0.5, "variance": 12.0, "rho": 0.2},
                {"mean": -1.0, "variance": 9.0, "rho": -0.4},
            ],
        },
    )
    assert status == 200
    assert answer["average_charge"] > 0


#: Hd pmfs for a 9-class model that are not probability distributions.
INVALID_DISTRIBUTIONS = (
    [-1.0, 2.0] + [0.0] * 7,
    [0.5] * 9,
    [0.0] * 9,
    [float("nan")] + [0.0] * 7 + [1.0],
    [float("inf")] + [0.0] * 8,
)
_STATS = {"mean": 0.5, "variance": 12.0, "rho": 0.2}
#: Per-operand word statistics outside their domain.
INVALID_OPERAND_STATS = (
    [dict(_STATS, variance=-5.0), _STATS],
    [dict(_STATS, rho=3.0), _STATS],
    [dict(_STATS, rho=-1.5), _STATS],
    [dict(_STATS, mean=float("nan")), _STATS],
    [dict(_STATS, variance=float("inf")), _STATS],
)


def test_validation_errors(server):
    cases = [
        ("/v1/estimate/bits", {"width": WIDTH, "bits": _bits()}),
        ("/v1/estimate/bits", {"kind": KIND, "width": 0, "bits": _bits()}),
        ("/v1/estimate/bits", {"kind": KIND, "width": True, "bits": _bits()}),
        ("/v1/estimate/bits",
         {"kind": KIND, "width": WIDTH, "bits": [[0, 1]]}),
        ("/v1/estimate/bits",
         {"kind": KIND, "width": WIDTH, "bits": [[2] * 8, [0] * 8]}),
        ("/v1/estimate/streams",
         {"kind": KIND, "width": WIDTH, "words": "zap"}),
        ("/v1/estimate/streams",
         {"kind": KIND, "width": WIDTH, "words": [[1], [1], [1]]}),
        ("/v1/estimate/distribution",
         {"kind": KIND, "width": WIDTH, "distribution": []}),
        ("/v1/estimate/analytic",
         {"kind": KIND, "width": WIDTH, "operand_stats": [7]}),
        # Fractional bits and words are rejected, never truncated.
        ("/v1/estimate/bits",
         {"kind": KIND, "width": WIDTH, "bits": [[0.5] * 8, [1] * 8]}),
        ("/v1/estimate/streams",
         {"kind": KIND, "width": WIDTH, "words": [[1.5, 2], [3, 4]]}),
    ] + [
        ("/v1/estimate/distribution",
         {"kind": KIND, "width": WIDTH, "distribution": pmf})
        for pmf in INVALID_DISTRIBUTIONS
    ] + [
        ("/v1/estimate/analytic",
         {"kind": KIND, "width": WIDTH, "operand_stats": stats})
        for stats in INVALID_OPERAND_STATS
    ]
    for path, payload in cases:
        status, answer = request(server.port, "POST", path, payload)
        assert status == 400, (path, payload, answer)
        assert answer["error"]["code"] == "bad_request"
        assert isinstance(answer["error"]["message"], str)


def test_short_streams_request_never_fails_its_batch(server):
    """A one-word streams request parsed in the same tick as a good bits
    request is rejected on its own; it never reaches the shared flush."""
    from repro.serve.server import _Request

    def post(path, payload):
        return _Request("POST", path, {}, json.dumps(payload).encode())

    bits = _bits()
    requests = [
        post("/v1/estimate/bits", {"kind": KIND, "width": WIDTH,
                                   "bits": bits}),
        post("/v1/estimate/streams", {"kind": KIND, "width": WIDTH,
                                      "words": [[1], [2]]}),
    ]

    # A private front-end on the shared registry: dispatched in-process,
    # both requests are parsed in one tick of this loop.
    instance = EstimationServer(server.server.registry)

    async def together():
        return await asyncio.gather(
            *(instance._dispatch(r) for r in requests)
        )

    (good, _, _), (short, answer, _) = asyncio.run(together())
    assert good == 200
    assert short == 400
    assert answer["error"]["code"] == "bad_request"


def test_unknown_kind_is_404(server):
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": "warp_core", "width": 4, "bits": _bits(),
    })
    assert status == 404
    assert answer["error"]["code"] == "unknown_kind"


def test_unknown_route_and_method(server):
    status, answer = request(server.port, "GET", "/v2/nothing")
    assert status == 404
    status, answer = request(server.port, "DELETE", "/healthz")
    assert status == 405


def test_malformed_json_is_400(server):
    status, raw = request_raw(
        server.port, "POST", "/v1/estimate/bits", b"{nope"
    )
    assert status == 400
    assert json.loads(raw)["error"]["code"] == "bad_request"


@pytest.mark.parametrize("declared, status, code", [
    ("abc", "400 Bad Request", "bad_request"),
    ("-5", "400 Bad Request", "bad_request"),
    (str(MAX_BODY_BYTES + 1), "413 Payload Too Large", "too_large"),
])
def test_bad_content_length_is_answered_and_closes(
    server, declared, status, code
):
    """A Content-Length that is not a non-negative integer gets a
    structured 400, one over the body limit a 413, and the connection is
    closed (the body is never read); the server keeps serving new
    connections."""
    async def go():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        try:
            writer.write(
                b"POST /v1/estimate/bits HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
            )
            await writer.drain()
            return await asyncio.wait_for(reader.read(), timeout=10)
        finally:
            writer.close()

    raw = asyncio.run(go())  # read() returns at EOF: the server closed
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == f"HTTP/1.1 {status}"
    assert "Connection: close" in lines
    error = json.loads(body)["error"]
    assert error["code"] == code
    assert declared in error["message"]
    status, _ = request(server.port, "GET", "/healthz")
    assert status == 200


#: Values of the wrong type or out of range, tried in every field.
_WRONG_VALUES = (
    None, True, -1, 0, 2.5, float("nan"), float("inf"), "x", [], [[]], {},
    [[0, 1], [0]], ["0"],
)
#: Non-object ``module`` addressing values.
_BAD_MODULES = (
    "ripple_adder", [], {}, {"kind": 4}, {"kind": KIND},
    {"kind": KIND, "width": "4"}, {"kind": KIND, "width": 0},
    {"kind": KIND, "width": WIDTH, "params": []},
    {"kind": KIND, "width": WIDTH, "params": {"nope": 1}},
    {"kind": "nope_adder", "width": WIDTH},
)
#: Bodies that are not a JSON object at all.
_RAW_BODIES = (
    b"", b"{", b'{"kind": ', b"{nope", b"[]", b"[1, 2]", b'"text"',
    b"null", b"42", b"\xff\xfe\xfd", b'{"kind": "\xff"}',
)
_BAD_BITS = (
    [[0.5] * 8, [1] * 8], [[2] * 8, [0] * 8], [[0, 1], [0]], [[], []],
    [["0"] * 8, ["1"] * 8], [[None] * 8] * 2, [[float("nan")] * 8] * 2,
    [[0] * 8] * (MAX_TRACE_ROWS + 1), "nope",
)
_BAD_WORDS = (
    [[1.5, 2], [3, 4]], [[2 ** 70, 0], [0, 0]], [[1, 2], [3]],
    [["a", "b"], [1, 2]], [[1, 2]], [[1, 2], [3, 4], [5, 6]],
    [[100, 0], [0, 0]],
)
_BAD_PMFS = INVALID_DISTRIBUTIONS + (
    [1.0 / 8] * 8, [[0.1]] * 9, ["a"] * 9, [None] * 9,
)
_BAD_STATS = INVALID_OPERAND_STATS + (
    [{"mean": 0.0}, _STATS], ["x", _STATS], [{}, _STATS],
    [{"mean": "a", "variance": 1.0}, _STATS], [_STATS], [_STATS] * 3,
)


def _sweep_cases(session_id):
    """``(path, body, must_reject)`` over every POST route.

    ``must_reject`` marks bodies that have to answer 4xx; everything
    else only has to stay clear of 5xx.
    """
    address = {"kind": KIND, "width": WIDTH}
    bases = {
        "/v1/estimate/bits": dict(address, bits=_bits(rows=4)),
        "/v1/estimate/streams": dict(address, words=[[0, 3], [1, -2]]),
        "/v1/estimate/distribution": dict(address,
                                          distribution=[1.0 / 9] * 9),
        "/v1/estimate/analytic": dict(address,
                                      operand_stats=[_STATS] * 2),
        "/v1/sessions": dict(address),
        f"/v1/sessions/{session_id}/append": {"bits": _bits(rows=4)},
    }
    optional = ("mode", "enhanced", "node", "vdd", "f_clk", "per_cycle",
                "use_distribution", "self_check", "check_prefix")
    special = {
        "bits": _BAD_BITS, "words": _BAD_WORDS, "distribution": _BAD_PMFS,
        "operand_stats": _BAD_STATS,
    }
    cases = []
    for path, base in bases.items():
        cases += [(path, raw, True) for raw in _RAW_BODIES]
        for field in list(base) + list(optional):
            cases.append((path, {k: v for k, v in base.items()
                                 if k != field}, False))
            for value in _WRONG_VALUES:
                cases.append((path, dict(base, **{field: value}), False))
            for value in special.get(field, ()):
                cases.append((path, dict(base, **{field: value}), True))
        if "kind" in base:
            cases += [(path, {"module": module}, True)
                      for module in _BAD_MODULES]
    return cases


def test_malformed_body_sweep_never_5xx(server):
    """Every POST route answers malformed bodies with a structured 4xx
    (or a 2xx where the body happens to be valid), never a 5xx."""
    port = server.port
    status, created = request(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH,
    })
    assert status == 201
    session_id = created["session_id"]
    opened = [session_id]
    cases = _sweep_cases(session_id)
    assert len(cases) > 500
    for path, body, must_reject in cases:
        status, raw = request_raw(port, "POST", path, body)
        label = (path, body if isinstance(body, bytes) else
                 json.dumps(body)[:200], status, raw[:200])
        assert status < 500, label
        if must_reject:
            assert 400 <= status < 500, label
        if status >= 400:
            error = json.loads(raw)["error"]
            assert set(error) == {"code", "message"}, label
            assert isinstance(error["code"], str), label
            assert isinstance(error["message"], str), label
        elif path == "/v1/sessions":
            opened.append(json.loads(raw)["session_id"])
    for sid in opened:
        request(port, "DELETE", f"/v1/sessions/{sid}")


def test_healthz(server):
    status, health = request(server.port, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["models_loaded"] >= 1
    assert health["max_queue"] == 64


def test_models_listing(server):
    status, models = request(server.port, "GET", "/v1/models")
    assert status == 200
    assert any(
        m["kind"] == KIND and m["width"] == WIDTH for m in models["loaded"]
    )
    assert KIND in models["kinds"]


def test_metrics_exposition(server):
    status, text = request(server.port, "GET", "/metrics")
    assert status == 200
    assert isinstance(text, str)
    assert "# TYPE serve_requests_total counter" in text
    assert "serve_request_seconds_bucket" in text
    assert 'serve_requests_total{endpoint="bits",status="200"}' in text


def test_cache_backed_mixed_burst(tmp_path):
    """200 requests mixing all four estimate families at concurrency 8
    against a ModelCache-backed registry: every answer 200, 1e-9 parity
    with the direct estimator, populated latency and batch histograms."""
    registry = ModelRegistry(config=CONFIG, cache=ModelCache(tmp_path))
    instance = EstimationServer(registry, max_queue=256, jobs=2)
    with ServerThread(instance) as thread:
        counts = burst(thread.port, estimate_bodies(KIND, WIDTH, n=64),
                       n=200, concurrency=8)
        assert counts == {200: 200}

        bits = _bits(rows=64, seed=17)
        status, answer = request(thread.port, "POST", "/v1/estimate/bits", {
            "kind": KIND, "width": WIDTH, "bits": bits,
        })
        assert status == 200
        direct = registry.get(KIND, WIDTH).estimator.estimate_from_bits(
            np.asarray(bits)
        )
        assert abs(answer["average_charge"] - direct.average_charge) <= 1e-9
        assert answer["n_cycles"] == 63

        status, page = request(thread.port, "GET", "/metrics")
        assert status == 200
        for metric in ("serve_request_seconds", "serve_batch_size"):
            match = re.search(rf"^{metric}_count(?:{{[^}}]*}})? (\d+)",
                              page, re.MULTILINE)
            assert match and int(match.group(1)) > 0, metric
    assert not thread._thread.is_alive()


class _GatedRegistry(ModelRegistry):
    """A registry whose cold loads block until ``gate`` is set.

    Warm estimates finish within their own loop tick, so the routes that
    can hold a queue slot or outlive a deadline are the ones that wait on
    a model load; ``entered`` is set once a load is blocked on the gate.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _materialize_exact(self, *args):
        self.entered.set()
        self.gate.wait(SOCKET_TIMEOUT)
        return super()._materialize_exact(*args)


def test_backpressure_429_instead_of_stalling():
    """Over-queue load is rejected with 429 + Retry-After, never stalls."""
    registry = _GatedRegistry(config=CONFIG, cache=None)
    instance = EstimationServer(registry, max_queue=2, jobs=1)

    def open_gate_after_rejections():
        # Hold the cold load until the flood has been turned away.
        deadline = time.monotonic() + SOCKET_TIMEOUT
        while (instance.metrics.rejected_total.value(reason="queue_full")
               < 20 and time.monotonic() < deadline):
            time.sleep(0.005)
        registry.gate.set()

    with ServerThread(instance) as thread:
        bodies = estimate_bodies(KIND, WIDTH, n=64, seed=9,
                                 families=("bits",))
        opener = threading.Thread(target=open_gate_after_rejections)
        opener.start()
        started = time.perf_counter()
        counts = burst(thread.port, bodies, n=100, concurrency=16)
        elapsed = time.perf_counter() - started
        opener.join()
    assert counts[429] > 0, counts
    assert counts[200] > 0, counts
    assert not [status for status in counts if status >= 500], counts
    assert elapsed < 30, f"flood stalled for {elapsed:.1f}s"

    # And the Retry-After header is actually on the wire.
    registry2 = _GatedRegistry(config=CONFIG, cache=None)
    instance2 = EstimationServer(registry2, max_queue=1, jobs=1)
    body = {"kind": KIND, "width": WIDTH, "bits": _bits(rows=8)}
    with ServerThread(instance2) as thread2:
        held = []
        slow = threading.Thread(target=lambda: held.append(request(
            thread2.port, "POST", "/v1/estimate/bits", body
        )))
        slow.start()
        try:
            # The first request occupies the only queue slot.
            assert registry2.entered.wait(SOCKET_TIMEOUT)
            status, answer, headers = request_full(
                thread2.port, "POST", "/v1/estimate/bits", body
            )
        finally:
            registry2.gate.set()
            slow.join()
    assert status == 429
    assert answer["error"]["code"] == "queue_full"
    assert headers["Retry-After"] == "0.05"
    assert held[0][0] == 200


def test_deadline_yields_504():
    registry = _GatedRegistry(config=CONFIG, cache=None)
    # A cold load held far past the deadline: the request must time out.
    instance = EstimationServer(registry, request_timeout=0.01, jobs=1)
    try:
        with ServerThread(instance) as thread:
            status, answer = request(
                thread.port, "POST", "/v1/estimate/bits",
                {"kind": KIND, "width": WIDTH, "bits": _bits(rows=8)},
            )
    finally:
        registry.gate.set()
    assert status == 504
    assert answer["error"]["code"] == "deadline_exceeded"


def test_graceful_shutdown_leaves_no_thread():
    registry = ModelRegistry(config=CONFIG, cache=None)
    instance = EstimationServer(registry)
    thread = ServerThread(instance).start()
    port = thread.port
    status, _ = request(port, "GET", "/healthz")
    assert status == 200
    thread.stop()
    assert not thread._thread.is_alive()
    with pytest.raises(OSError):
        asyncio.run(asyncio.open_connection("127.0.0.1", port))


def test_drain_force_closes_stalled_keepalive_client():
    """drain(timeout) must *enforce* the timeout.

    A keep-alive client that opens a connection and then goes silent
    (and another that stalls mid-request, promising a body it never
    sends) used to keep the connection — and, on newer asyncio, the
    whole drain — alive indefinitely.  Now drain returns within the
    deadline and the stragglers see their connection cut.
    """
    import time

    registry = ModelRegistry(config=CONFIG, cache=None)
    registry.get(KIND, WIDTH)
    instance = EstimationServer(registry, jobs=1)

    async def scenario():
        await instance.start()
        port = instance.port
        # Stalled client A: connects, never sends a byte.
        reader_a, writer_a = await asyncio.open_connection("127.0.0.1", port)
        # Stalled client B: sends headers claiming a body, then stops —
        # the handler is parked inside readexactly().
        reader_b, writer_b = await asyncio.open_connection("127.0.0.1", port)
        writer_b.write(
            b"POST /v1/estimate/bits HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10\r\n\r\n"
        )
        await writer_b.drain()
        await asyncio.sleep(0.1)
        assert len(instance._connections) == 2

        started = time.perf_counter()
        await instance.drain(timeout=0.5)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"drain ignored its deadline ({elapsed:.1f}s)"

        # Both stalled clients must observe the force-close promptly.
        for reader in (reader_a, reader_b):
            try:
                data = await asyncio.wait_for(reader.read(1), timeout=2.0)
                assert data == b"", "connection survived the drain"
            except (ConnectionError, asyncio.TimeoutError) as exc:
                assert not isinstance(exc, asyncio.TimeoutError), (
                    "stalled connection still open after drain"
                )
        for writer in (writer_a, writer_b):
            writer.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Per-request tracing: X-Repro-Trace opt-in (see docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
def test_untraced_request_has_no_trace_payload(server):
    status, answer = request(server.port, "POST", "/v1/estimate/bits", {
        "kind": KIND, "width": WIDTH, "bits": _bits(rows=6),
    })
    assert status == 200
    assert "trace" not in answer


def test_traced_request_returns_span_summary_and_chrome(server):
    from repro.obs import validate_chrome

    bits = _bits(rows=8)
    status, answer = request(
        server.port, "POST", "/v1/estimate/bits",
        {"kind": KIND, "width": WIDTH, "bits": bits},
        headers={"X-Repro-Trace": "1"},
    )
    assert status == 200
    # The estimate itself is unchanged by tracing.
    direct = server.server.registry.get(
        KIND, WIDTH
    ).estimator.estimate_from_bits(np.asarray(bits))
    assert abs(answer["average_charge"] - direct.average_charge) <= 1e-9

    trace = answer["trace"]
    assert trace["trace_id"]
    spans = trace["spans"]
    assert "serve.request" in spans
    assert "batch.flush" in spans  # call_soon carried the context along
    assert spans["serve.request"]["count"] == 1
    # Decode and module fields, then the bit check once the model is known.
    assert spans["serve.parse"]["count"] == 2
    assert spans["serve.model"]["count"] == 1
    assert spans["serve.respond"]["count"] == 1
    assert validate_chrome(trace["chrome"]) == []
    # Process-wide counters stay on /metrics, out of the per-request trace.
    assert trace["chrome"]["otherData"] == {"trace_id": trace["trace_id"]}

    # The traced exemplar also lands on /metrics.
    status, page = request(server.port, "GET", "/metrics")
    assert status == 200
    assert "serve_traced_requests_total" in page
    assert 'serve_trace_span_seconds{span="serve.request"}' in page


def test_trace_header_false_values_disable(server):
    status, answer = request(
        server.port, "POST", "/v1/estimate/bits",
        {"kind": KIND, "width": WIDTH, "bits": _bits(rows=6)},
        headers={"X-Repro-Trace": "0"},
    )
    assert status == 200
    assert "trace" not in answer
