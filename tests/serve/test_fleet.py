"""Fleet tests: warmup manifests, metrics aggregation, and the
multi-process supervisor serving real HTTP across forked workers."""

import json
import re

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.serve import (
    ModelRegistry,
    ServeFleet,
    WarmupManifest,
    aggregate_expositions,
    default_manifest,
    inject_label,
    warm_registry,
)
from repro.serve.fleet import FleetMetricsServer
from repro.serve.registry import CharacterizationFailed

from .conftest import (
    SOCKET_TIMEOUT,
    burst,
    estimate_bodies,
    needs_fork,
    request_once as _fleet_request,
)

CONFIG = ExperimentConfig(n_characterization=300, seed=5)
KIND, WIDTH = "ripple_adder", 4

# Forked workers + real sockets: bound every test in the module
# (enforced by pytest-timeout in CI; inert without the plugin).
pytestmark = pytest.mark.timeout(SOCKET_TIMEOUT)


# ----------------------------------------------------------------------
# inject_label / aggregate_expositions
# ----------------------------------------------------------------------
def test_inject_label_bare_sample():
    line = inject_label("serve_in_flight 3", "worker", "0")
    assert line == 'serve_in_flight{worker="0"} 3'


def test_inject_label_existing_labels_go_after_injected():
    line = inject_label(
        'serve_requests_total{endpoint="bits",status="200"} 17',
        "worker", "1",
    )
    assert line == (
        'serve_requests_total{worker="1",endpoint="bits",status="200"} 17'
    )


def test_inject_label_passes_comments_and_blank_lines_through():
    assert inject_label("# HELP x y", "worker", "0") == "# HELP x y"
    assert inject_label("", "worker", "0") == ""


def test_inject_label_escapes_value():
    line = inject_label("m 1", "worker", 'a"b\\c')
    assert line == 'm{worker="a\\"b\\\\c"} 1'


def test_aggregate_expositions_single_header_per_family():
    page = (
        "# HELP serve_in_flight Requests in flight.\n"
        "# TYPE serve_in_flight gauge\n"
        "serve_in_flight {}\n"
    )
    merged = aggregate_expositions(
        {"0": page.format(2), "1": page.format(5)}
    )
    lines = merged.splitlines()
    assert lines.count("# HELP serve_in_flight Requests in flight.") == 1
    assert lines.count("# TYPE serve_in_flight gauge") == 1
    assert 'serve_in_flight{worker="0"} 2' in lines
    assert 'serve_in_flight{worker="1"} 5' in lines
    # Samples sit together under the single header.
    assert lines.index('serve_in_flight{worker="1"} 5') == (
        lines.index('serve_in_flight{worker="0"} 2') + 1
    )


def test_aggregate_expositions_keeps_histogram_suffixes_in_family():
    page = (
        "# HELP serve_request_seconds Latency.\n"
        "# TYPE serve_request_seconds histogram\n"
        'serve_request_seconds_bucket{le="+Inf"} 4\n'
        "serve_request_seconds_sum 0.25\n"
        "serve_request_seconds_count 4\n"
        "# HELP other_total Other.\n"
        "# TYPE other_total counter\n"
        "other_total 1\n"
    )
    merged = aggregate_expositions({"0": page, "1": page})
    lines = merged.splitlines()
    histogram_header = lines.index("# TYPE serve_request_seconds histogram")
    other_header = lines.index("# HELP other_total Other.")
    for needle in (
        'serve_request_seconds_sum{worker="0"} 0.25',
        'serve_request_seconds_count{worker="1"} 4',
    ):
        assert histogram_header < lines.index(needle) < other_header


def test_aggregate_expositions_empty():
    assert aggregate_expositions({}) == ""


# ----------------------------------------------------------------------
# Warmup manifests
# ----------------------------------------------------------------------
def test_default_manifest_covers_every_table1_family():
    from repro.modules.library import PAPER_MODULE_KINDS

    manifest = default_manifest()
    assert tuple(e.kind for e in manifest.entries) == PAPER_MODULE_KINDS
    jobs = manifest.jobs()
    assert len(jobs) == len(PAPER_MODULE_KINDS) * len(
        manifest.entries[0].widths
    )


def test_manifest_round_trips_through_json(tmp_path):
    manifest = WarmupManifest.from_dict({
        "version": 1,
        "entries": [
            {"kind": "csa_multiplier", "widths": [4, 8]},
            {"kind": "ripple_adder", "widths": [8], "enhanced": True},
        ],
    })
    path = manifest.dump(tmp_path / "manifest.json")
    again = WarmupManifest.load(path)
    assert again == manifest
    assert again.jobs() == [
        ("csa_multiplier", 4, False),
        ("csa_multiplier", 8, False),
        ("ripple_adder", 8, True),
    ]


def test_manifest_jobs_deduplicate():
    manifest = WarmupManifest.from_dict({
        "entries": [
            {"kind": "ripple_adder", "widths": [4, 4, 8]},
            {"kind": "ripple_adder", "widths": [8]},
        ],
    })
    assert manifest.jobs() == [
        ("ripple_adder", 4, False), ("ripple_adder", 8, False),
    ]


@pytest.mark.parametrize("payload,message", [
    ([], "JSON object"),
    ({"version": 2, "entries": [{}]}, "version"),
    ({"entries": []}, "non-empty 'entries'"),
    ({"entries": ["x"]}, "entries[0] must be an object"),
    ({"entries": [{"kind": "nope", "widths": [4]}]}, "unknown module kind"),
    ({"entries": [{"kind": "ripple_adder", "widths": []}]}, "widths"),
    ({"entries": [{"kind": "ripple_adder", "widths": [0]}]}, "widths"),
    ({"entries": [{"kind": "ripple_adder", "widths": [True]}]}, "widths"),
    ({"entries": [{"kind": "ripple_adder", "widths": [4],
                   "enhanced": "yes"}]}, "enhanced"),
])
def test_manifest_validation_rejects(payload, message):
    with pytest.raises(ValueError, match=message.replace("[", r"\[")):
        WarmupManifest.from_dict(payload)


def test_warm_registry_materializes_both_tiers():
    registry = ModelRegistry(config=CONFIG, cache=None)
    manifest = WarmupManifest.from_dict({
        "entries": [{"kind": KIND, "widths": [WIDTH, 24]}],
    })
    report = warm_registry(registry, manifest)
    assert report.ok
    assert report.n_models == 2
    assert report.sources["characterized"] == 1
    assert report.sources["regressed"] == 1
    assert len(registry) >= 2
    # Every manifest model now answers from memory.
    assert registry.get(KIND, WIDTH).source == "characterized"


def test_warm_registry_records_failures_without_raising(monkeypatch):
    registry = ModelRegistry(config=CONFIG, cache=None)

    def explode(kind, width, enhanced):
        raise CharacterizationFailed(f"boom for {kind}/{width}")

    monkeypatch.setattr(registry, "_materialize_exact", explode)
    manifest = WarmupManifest.from_dict({
        "entries": [{"kind": KIND, "widths": [WIDTH]}],
    })
    report = warm_registry(registry, manifest)
    assert not report.ok
    assert report.n_models == 0
    assert report.failures == [{
        "model": f"{KIND}/{WIDTH}",
        "error": f"boom for {KIND}/{WIDTH}",
    }]


# ----------------------------------------------------------------------
# The fleet itself
# ----------------------------------------------------------------------
@needs_fork
def test_fleet_serves_across_workers_with_parity():
    registry = ModelRegistry(config=CONFIG, cache=None)
    manifest = WarmupManifest.from_dict({
        "entries": [{"kind": KIND, "widths": [WIDTH]}],
    })
    assert warm_registry(registry, manifest).ok
    served = registry.get(KIND, WIDTH)

    fleet = ServeFleet(registry, workers=2)
    with fleet:
        assert fleet.strategy in ("reuseport", "inherited")
        assert fleet.alive_workers() == 2

        # Flood: enough concurrent connections that both SO_REUSEPORT
        # accept queues receive traffic (P[one worker starves] ~ 2^-15).
        counts = burst(fleet.port, estimate_bodies(KIND, WIDTH, seed=7),
                       n=120, concurrency=16)
        assert sum(counts.values()) == 120
        assert not [status for status in counts if status >= 500], counts

        # Bit-exact parity with the in-process estimator the workers
        # inherited: the fleet adds processes, never error.
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=(16, 2 * WIDTH)).tolist()
        status, answer = _fleet_request(
            fleet.port, "POST", "/v1/estimate/bits",
            {"kind": KIND, "width": WIDTH, "bits": bits},
        )
        assert status == 200
        direct = served.estimator.estimate_from_bits(np.asarray(bits))
        assert abs(answer["average_charge"] - direct.average_charge) <= 1e-9

        # Every worker served some of the flood (the `worker` label on
        # serve_requests_total is the operator-facing view of the same).
        counts = fleet.worker_request_counts()
        assert set(counts) == {0, 1}
        assert all(count > 0 for count in counts.values()), counts

        # The aggregated exposition carries both workers under one set
        # of family headers.
        merged = fleet.metrics_text()
        assert "repro_fleet_workers 2" in merged
        assert "repro_fleet_workers_alive 2" in merged
        for worker_id in (0, 1):
            assert f'worker="{worker_id}"' in merged
        families = re.findall(r"^# TYPE (\S+)", merged, re.MULTILINE)
        assert "# TYPE serve_requests_total counter" in merged.splitlines()
        assert len(families) == len(set(families)), families

        health = fleet.healthz()
        assert health["status"] == "ok"
        assert [w["worker"] for w in health["workers"]] == [0, 1]

    assert fleet.alive_workers() == 0


@needs_fork
def test_warmed_fleet_first_request_never_characterizes():
    registry = ModelRegistry(config=CONFIG, cache=None)
    manifest = WarmupManifest.from_dict({
        "entries": [{"kind": KIND, "widths": [WIDTH]}],
    })
    warm_registry(registry, manifest)

    with ServeFleet(registry, workers=2) as fleet:
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(8, 2 * WIDTH)).tolist()
        # The very first request each worker sees must be a memory hit:
        # no characterization, no materialization, anywhere in its trace.
        for _ in range(4):  # >=1 per worker with high probability
            status, answer = _fleet_request(
                fleet.port, "POST", "/v1/estimate/bits",
                {"kind": KIND, "width": WIDTH, "bits": bits},
                headers={"X-Repro-Trace": "1"},
            )
            assert status == 200
            spans = answer["trace"]["spans"]
            assert not [
                name for name in spans
                if "characterize" in name or "materialize" in name
            ], spans


@needs_fork
def test_fleet_metrics_server_serves_aggregate_over_http():
    import urllib.request

    registry = ModelRegistry(config=CONFIG, cache=None)
    registry.get(KIND, WIDTH)
    with ServeFleet(registry, workers=2) as fleet:
        with FleetMetricsServer(fleet) as metrics:
            page = urllib.request.urlopen(
                f"http://127.0.0.1:{metrics.port}/metrics", timeout=30
            ).read().decode()
            assert "repro_fleet_workers 2" in page
            assert 'worker="0"' in page and 'worker="1"' in page

            health = json.loads(urllib.request.urlopen(
                f"http://127.0.0.1:{metrics.port}/healthz", timeout=30
            ).read().decode())
            assert health["status"] == "ok"
            assert len(health["workers"]) == 2

            missing = urllib.request.Request(
                f"http://127.0.0.1:{metrics.port}/nope"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(missing, timeout=30)
            assert excinfo.value.code == 404


@needs_fork
def test_fleet_fallback_strategy_when_reuseport_unavailable(monkeypatch):
    from repro.serve import fleet as fleet_mod

    def no_reuseport(host, port):
        raise OSError("SO_REUSEPORT unavailable (forced by test)")

    monkeypatch.setattr(fleet_mod, "_reuseport_socket", no_reuseport)
    registry = ModelRegistry(config=CONFIG, cache=None)
    registry.get(KIND, WIDTH)
    with ServeFleet(registry, workers=2) as fleet:
        assert fleet.strategy == "inherited"
        counts = burst(fleet.port, estimate_bodies(KIND, WIDTH, n=8, seed=9),
                       n=40, concurrency=8)
        assert sum(counts.values()) == 40
        assert not [status for status in counts if status >= 500], counts


def test_fleet_rejects_bad_worker_counts():
    registry = ModelRegistry(config=CONFIG, cache=None)
    with pytest.raises(ValueError, match="workers"):
        ServeFleet(registry, workers=0)
