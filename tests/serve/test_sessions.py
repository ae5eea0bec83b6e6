"""Streaming-session tests: store semantics, HTTP lifecycle, parity.

Three layers, cheapest first:

* :class:`SessionStore` / :class:`StreamingEstimator` directly (no
  sockets): running-vs-offline parity, TTL eviction with an injected
  clock, budgets, snapshot/restore;
* the HTTP endpoints over a real :class:`ServerThread` (lifecycle,
  error mapping, backpressure, drain survival);
* the ``Session.stream`` facade in :mod:`repro.api`.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    ModelRegistry,
    ServeFleet,
    ServerThread,
    WarmupManifest,
    warm_registry,
)
from repro.serve.server import EstimationServer
from repro.serve.sessions import (
    SessionBudgetError,
    SessionStore,
    StreamingEstimator,
    UnknownSessionError,
    WrongWorkerError,
    parse_session_worker,
)

from .conftest import (
    SERVE_CONFIG,
    SOCKET_TIMEOUT,
    http_request,
    needs_fork,
    request_full,
    request_once,
)

KIND, WIDTH = "ripple_adder", 4

pytestmark = pytest.mark.timeout(SOCKET_TIMEOUT)

#: The issue-level contract: running estimate after K appends equals the
#: offline one-shot estimate on the concatenated trace to 1e-9.
PARITY_RTOL = 1e-9


def _bits(rows, seed=0, width=2 * WIDTH):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, width))


def assert_parity(running, served, bits):
    offline = served.estimator.estimate_from_bits(np.asarray(bits, bool))
    assert running.average_charge == pytest.approx(
        offline.average_charge, rel=PARITY_RTOL
    )
    assert running.total_charge == pytest.approx(
        float(offline.cycle_charge.sum()), rel=PARITY_RTOL
    )


# ----------------------------------------------------------------------
# StreamingEstimator / SessionStore (no sockets)
# ----------------------------------------------------------------------
def test_streaming_parity_awkward_segmentation(served_adder4):
    bits = _bits(200, seed=1)
    stream = StreamingEstimator(served_adder4)
    cuts = [0, 1, 1, 2, 99, 100, 101, 200]  # empty / single-row / ±1
    for start, stop in zip(cuts, cuts[1:]):
        running = stream.append(bits[start:stop])
    assert running.n_rows == 200
    assert running.n_transitions == 199
    assert_parity(stream.finalize(), served_adder4, bits)


def test_streaming_rejects_bad_segments(served_adder4):
    stream = StreamingEstimator(served_adder4)
    with pytest.raises(ValueError):
        stream.append(np.zeros((3, 5)))  # wrong width
    with pytest.raises(ValueError):
        stream.append(np.full((2, 2 * WIDTH), 2))  # not 0/1
    assert stream.estimate().n_rows == 0


def test_store_lifecycle_and_parity(serve_registry, served_adder4):
    store = SessionStore(resolver=serve_registry.get, worker_id=3)
    created = store.create(KIND, WIDTH)
    sid = created.session_id
    assert parse_session_worker(sid) == 3
    assert sid in store and len(store) == 1

    bits = _bits(150, seed=2)
    counts = []
    for start in range(0, 150, 30):
        running = store.append(sid, bits[start:start + 30].tolist())
        counts.append(running.n_transitions)
    assert counts == sorted(counts)  # monotone as segments arrive
    final = store.finalize(sid)
    assert_parity(final, served_adder4, bits)
    assert sid not in store
    with pytest.raises(UnknownSessionError):
        store.get(sid)


def test_store_wrong_worker_and_budgets(serve_registry):
    store = SessionStore(
        resolver=serve_registry.get, worker_id=0,
        max_sessions=1, max_session_rows=40,
    )
    sid = store.create(KIND, WIDTH).session_id
    with pytest.raises(WrongWorkerError) as err:
        store.get(f"s9-{'0' * 12}")
    assert err.value.owner_worker == 9
    with pytest.raises(SessionBudgetError) as err:
        store.create(KIND, WIDTH)
    assert err.value.reason == "session_budget"
    store.append(sid, _bits(40, seed=3).tolist())
    with pytest.raises(SessionBudgetError) as err:
        store.append(sid, _bits(1, seed=3).tolist())
    assert err.value.reason == "session_rows_budget"


def test_store_ttl_eviction_with_injected_clock(serve_registry):
    now = [1000.0]
    evicted = []
    store = SessionStore(
        resolver=serve_registry.get, ttl_seconds=10.0,
        clock=lambda: now[0],
        on_evict=lambda sid, reason: evicted.append((sid, reason)),
    )
    old = store.create(KIND, WIDTH).session_id
    now[0] += 5.0
    young = store.create(KIND, WIDTH).session_id
    now[0] += 7.0  # old idle 12s (> ttl), young idle 7s
    assert store.sweep() == [old]
    assert evicted == [(old, "ttl")]
    assert old not in store and young in store

    store.append(young, _bits(4).tolist())  # touch resets the idle clock
    now[0] += 8.0                           # idle 8s since the append
    assert store.sweep() == []
    now[0] += 3.0                           # idle 11s
    assert store.sweep() == [young]
    assert len(store) == 0


def test_store_snapshot_restore_round_trip(serve_registry, served_adder4):
    store = SessionStore(resolver=serve_registry.get, worker_id=1)
    sid = store.create(KIND, WIDTH).session_id
    bits = _bits(120, seed=4)
    store.append(sid, bits[:70].tolist())

    data = json.loads(json.dumps(store.snapshot()))  # the wire format
    successor = SessionStore(resolver=serve_registry.get, worker_id=1)
    assert successor.restore(data) == 1
    final = successor.append(sid, bits[70:].tolist())
    assert_parity(final, served_adder4, bits)


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
@pytest.fixture()
def session_server(serve_registry, served_adder4, tmp_path):
    instance = EstimationServer(
        serve_registry, max_sessions=2,
        session_snapshot_path=str(tmp_path / "sessions.json"),
    )
    with ServerThread(instance) as thread:
        yield thread


def test_http_session_lifecycle_and_parity(session_server, served_adder4):
    port = session_server.port
    status, created = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH,
    })
    assert status == 201
    sid = created["session_id"]
    assert created["n_rows"] == 0

    bits = _bits(90, seed=5)
    transitions = []
    for start in range(0, 90, 30):
        status, running = request_once(
            port, "POST", f"/v1/sessions/{sid}/append",
            {"bits": bits[start:start + 30].tolist()},
        )
        assert status == 200
        transitions.append(running["n_transitions"])
    assert transitions == sorted(transitions)

    status, read_back = request_once(port, "GET", f"/v1/sessions/{sid}")
    assert status == 200 and read_back["n_rows"] == 90

    status, final = request_once(port, "DELETE", f"/v1/sessions/{sid}")
    assert status == 200
    offline = served_adder4.estimator.estimate_from_bits(
        np.asarray(bits, bool)
    )
    assert final["average_charge"] == pytest.approx(
        offline.average_charge, rel=PARITY_RTOL
    )
    status, _ = request_once(port, "GET", f"/v1/sessions/{sid}")
    assert status == 404


def test_http_session_error_mapping(session_server):
    port = session_server.port
    status, answer = request_once(port, "POST", "/v1/sessions", {
        "kind": "no_such_module", "width": WIDTH,
    })
    assert status == 404 and answer["error"]["code"] == "unknown_kind"

    status, answer = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": 0,
    })
    assert status == 400

    status, answer, headers = request_full(
        port, "GET", f"/v1/sessions/s7-{'0' * 12}"
    )
    assert status == 409 and answer["error"]["code"] == "wrong_worker"
    assert headers.get("X-Repro-Owner-Worker") == "7"

    sid = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH,
    })[1]["session_id"]
    status, answer = request_once(
        port, "POST", f"/v1/sessions/{sid}/append", {"bits": "nope"}
    )
    assert status == 400
    request_once(port, "DELETE", f"/v1/sessions/{sid}")


def test_http_session_budget_429(session_server):
    port = session_server.port
    opened = [
        request_once(port, "POST", "/v1/sessions",
                     {"kind": KIND, "width": WIDTH})
        for _ in range(2)
    ]
    assert [status for status, _ in opened] == [201, 201]
    status, answer, headers = request_full(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH,
    })
    assert status == 429
    assert answer["error"]["code"] == "session_budget"
    assert headers.get("Retry-After") == "1"
    for _, created in opened:
        request_once(port, "DELETE", f"/v1/sessions/{created['session_id']}")


def test_http_session_metrics_and_healthz(session_server):
    # The metrics registry is shared (session-scoped model registry), so
    # assert deltas, not absolutes.
    metrics = session_server.server.metrics
    appends_before = metrics.session_appends_total.value()
    rows_before = metrics.session_rows_total.value()

    port = session_server.port
    sid = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH,
    })[1]["session_id"]
    request_once(port, "POST", f"/v1/sessions/{sid}/append",
                 {"bits": _bits(8, seed=6).tolist()})
    status, health = request_once(port, "GET", "/healthz")
    assert status == 200
    assert health["worker_id"] == 0
    assert health["sessions"]["open"] == 1
    status, page = request_once(port, "GET", "/metrics")
    assert "serve_sessions_open 1" in page
    for series in ("serve_sessions_created_total",
                   "serve_session_appends_total", "serve_session_rows_total",
                   "serve_sessions_closed_total"):
        assert series in page, series
    assert metrics.session_appends_total.value() == appends_before + 1
    assert metrics.session_rows_total.value() == rows_before + 8
    request_once(port, "DELETE", f"/v1/sessions/{sid}")
    assert metrics.sessions_open.value() == 0


def test_sessions_survive_drain_via_snapshot(
    serve_registry, served_adder4, tmp_path
):
    """A drained worker's open sessions resume in its successor."""
    path = str(tmp_path / "handoff.json")
    bits = _bits(100, seed=7)

    first = EstimationServer(serve_registry, session_snapshot_path=path)
    with ServerThread(first) as thread:
        status, created = request_once(thread.port, "POST", "/v1/sessions", {
            "kind": KIND, "width": WIDTH,
        })
        assert status == 201
        sid = created["session_id"]
        status, _ = request_once(
            thread.port, "POST", f"/v1/sessions/{sid}/append",
            {"bits": bits[:60].tolist()},
        )
        assert status == 200
    # ServerThread.__exit__ drained the server -> snapshot written.

    second = EstimationServer(serve_registry, session_snapshot_path=path)
    with ServerThread(second) as thread:
        status, final = request_once(
            thread.port, "POST", f"/v1/sessions/{sid}/append",
            {"bits": bits[60:].tolist()},
        )
        assert status == 200
        assert_parity_dict(final, served_adder4, bits)
        request_once(thread.port, "DELETE", f"/v1/sessions/{sid}")


def assert_parity_dict(payload, served, bits):
    offline = served.estimator.estimate_from_bits(np.asarray(bits, bool))
    assert payload["average_charge"] == pytest.approx(
        offline.average_charge, rel=PARITY_RTOL
    )


def test_self_check_session_accepts_honest_model(session_server):
    port = session_server.port
    status, created = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH, "self_check": True, "check_prefix": 4,
    })
    assert status == 201
    sid = created["session_id"]
    status, running = request_once(
        port, "POST", f"/v1/sessions/{sid}/append",
        {"bits": _bits(12, seed=8).tolist()},
    )
    assert status == 200
    assert running["self_checked_transitions"] > 0
    request_once(port, "DELETE", f"/v1/sessions/{sid}")


def test_http_long_session_with_interleaved_short_sessions(
    session_server, served_adder4
):
    """A 100-segment session, a short session opened, fed and closed
    every 10 segments: transition counts never decrease, no 5xx, and the
    final estimate matches the offline one on the whole trace."""
    port = session_server.port
    rng = np.random.default_rng(42)
    statuses = []

    def call(method, path, payload=None):
        status, answer = request_once(port, method, path, payload)
        statuses.append(status)
        return status, answer

    status, created = call("POST", "/v1/sessions",
                           {"kind": KIND, "width": WIDTH})
    assert status == 201
    sid = created["session_id"]
    segments = []
    last_transitions = -1
    for index in range(100):
        rows = rng.integers(0, 2, size=(16, 2 * WIDTH))
        segments.append(rows)
        status, running = call("POST", f"/v1/sessions/{sid}/append",
                               {"bits": rows.tolist()})
        assert status == 200, running
        assert running["n_transitions"] >= last_transitions, index
        last_transitions = running["n_transitions"]
        if index % 10 == 5:
            status, other = call("POST", "/v1/sessions",
                                 {"kind": KIND, "width": WIDTH})
            assert status == 201, other
            other_id = other["session_id"]
            call("POST", f"/v1/sessions/{other_id}/append",
                 {"bits": rng.integers(0, 2, size=(8, 2 * WIDTH)).tolist()})
            call("DELETE", f"/v1/sessions/{other_id}")

    status, final = call("DELETE", f"/v1/sessions/{sid}")
    assert status == 200
    assert not [status for status in statuses if status >= 500], statuses
    full = np.concatenate(segments)
    assert final["n_rows"] == len(full)
    assert_parity_dict(final, served_adder4, full)


def _stream_sessions(port, segments_by_session, concurrency):
    """Run one session per entry of ``segments_by_session``, each over its
    own keep-alive connection (create, append every segment, finalize),
    ``concurrency`` at a time.  Every answer must be below 400; returns
    the finalized bodies."""
    async def drive(segments, gate):
        async with gate:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            try:
                async def call(method, path, payload=None):
                    body = (None if payload is None
                            else json.dumps(payload).encode())
                    status, raw = await asyncio.wait_for(
                        http_request(reader, writer, method, path, body),
                        SOCKET_TIMEOUT,
                    )
                    assert status < 400, (method, path, status, raw)
                    return json.loads(raw)

                sid = (await call("POST", "/v1/sessions", {
                    "kind": KIND, "width": WIDTH,
                }))["session_id"]
                for rows in segments:
                    await call("POST", f"/v1/sessions/{sid}/append",
                               {"bits": rows.tolist()})
                return await call("DELETE", f"/v1/sessions/{sid}")
            finally:
                writer.close()

    async def run():
        gate = asyncio.Semaphore(concurrency)
        return await asyncio.gather(
            *(drive(segments, gate) for segments in segments_by_session)
        )

    return asyncio.run(run())


@needs_fork
def test_fleet_sessions_sticky_with_parity_and_clean_foreign_probes():
    registry = ModelRegistry(config=SERVE_CONFIG, cache=None)
    manifest = WarmupManifest.from_dict({
        "entries": [{"kind": KIND, "widths": [WIDTH]}],
    })
    assert warm_registry(registry, manifest).ok
    served = registry.get(KIND, WIDTH)
    segments_by_session = [
        [_bits(16, seed=7 + 7919 * index + segment)
         for segment in range(12)]
        for index in range(6)
    ]

    fleet = ServeFleet(registry, workers=2)
    with fleet:
        # Sessions that keep their connection stay on one worker.
        finals = _stream_sessions(fleet.port, segments_by_session,
                                  concurrency=3)
        for final, segments in zip(finals, segments_by_session):
            assert_parity_dict(final, served, np.concatenate(segments))

        # Fresh connections land on either worker: the owner answers 200,
        # the other a clean 409 naming the owner.
        status, created = request_once(fleet.port, "POST", "/v1/sessions",
                                       {"kind": KIND, "width": WIDTH})
        assert status == 201
        sid = created["session_id"]
        outcomes = {200: 0, 409: 0}
        for _ in range(24):
            status, answer, headers = request_full(
                fleet.port, "GET", f"/v1/sessions/{sid}"
            )
            assert status in outcomes, (status, answer)
            if status == 409:
                assert answer["error"]["code"] == "wrong_worker", answer
                assert "X-Repro-Owner-Worker" in headers
            outcomes[status] += 1
        assert outcomes[200] > 0, outcomes
    assert fleet.alive_workers() == 0


# ----------------------------------------------------------------------
# Session.stream facade
# ----------------------------------------------------------------------
def test_api_session_stream_facade(serve_registry, served_adder4):
    from repro.api import Session

    session = Session.__new__(Session)  # reuse the shared registry
    session._registry = serve_registry
    session.enhanced = False
    stream = session.stream(KIND, WIDTH)
    bits = _bits(80, seed=9)
    for start in range(0, 80, 16):
        running = stream.feed(bits[start:start + 16])
    assert running.n_rows == 80
    assert_parity(stream.finalize(), served_adder4, bits)


# ----------------------------------------------------------------------
# Technology calibration on sessions (repro.tech)
# ----------------------------------------------------------------------
def test_calibrated_session_physical_block(serve_registry, served_adder4):
    from repro.tech import Calibration, get_node

    store = SessionStore(resolver=serve_registry.get)
    created = store.create(KIND, WIDTH,
                           calibration=Calibration.from_spec(node="45nm"))
    sid = created.session_id
    assert created.physical is not None  # present from the first read
    bits = _bits(60, seed=11)
    running = store.append(sid, bits.tolist())
    node = get_node("45nm")
    expected = (running.average_charge * node.cap_per_unit
                * node.nominal_vdd**2)
    assert running.physical["energy_joules"] == pytest.approx(expected)
    assert running.physical["node"] == "45nm"
    assert running.physical["area_m2"] > 0
    # The wire dict carries the block; uncalibrated sessions must not.
    assert "physical" in running.to_dict()
    plain = store.create(KIND, WIDTH)
    assert plain.physical is None
    assert "physical" not in plain.to_dict()


def test_calibrated_session_normalized_figures_unchanged(
    serve_registry, served_adder4
):
    """Calibration is post-hoc: the normalized stream is bit-identical."""
    from repro.tech import Calibration

    bits = _bits(100, seed=12)
    plain = StreamingEstimator(served_adder4)
    calibrated = StreamingEstimator(
        served_adder4, calibration=Calibration.from_spec(node="22nm")
    )
    for start in range(0, 100, 25):
        a = plain.append(bits[start:start + 25])
        b = calibrated.append(bits[start:start + 25])
    assert b.average_charge == a.average_charge  # bit-identical
    assert b.total_charge == a.total_charge


def test_calibration_survives_snapshot_restore(serve_registry):
    from repro.tech import Calibration

    store = SessionStore(resolver=serve_registry.get, worker_id=1)
    sid = store.create(
        KIND, WIDTH,
        calibration=Calibration.from_spec(node="90nm", vdd=1.0),
    ).session_id
    store.append(sid, _bits(40, seed=13).tolist())
    before = store.get(sid)

    data = json.loads(json.dumps(store.snapshot()))  # the wire format
    successor = SessionStore(resolver=serve_registry.get, worker_id=1)
    assert successor.restore(data) == 1
    after = successor.get(sid)
    assert after.physical == before.physical
    assert after.physical["node"] == "90nm"
    assert after.physical["vdd"] == 1.0


def test_http_session_with_node(session_server, served_adder4):
    port = session_server.port
    status, created = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH, "node": "65nm",
    })
    assert status == 201
    sid = created["session_id"]
    bits = _bits(50, seed=14)
    status, running = request_once(
        port, "POST", f"/v1/sessions/{sid}/append", {"bits": bits.tolist()},
    )
    assert status == 200
    assert running["physical"]["node"] == "65nm"
    assert_parity_dict(running, served_adder4, bits)
    status, final = request_once(port, "DELETE", f"/v1/sessions/{sid}")
    assert status == 200 and final["physical"]["node"] == "65nm"


def test_http_session_rejects_unknown_node(session_server):
    port = session_server.port
    status, answer = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH, "node": "3nm",
    })
    assert status == 400 and answer["error"]["code"] == "bad_request"
    status, answer = request_once(port, "POST", "/v1/sessions", {
        "kind": KIND, "width": WIDTH, "vdd": "high",
    })
    assert status == 400
