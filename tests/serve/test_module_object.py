"""Unified ``module`` addressing object + legacy byte-identity pins.

Two contracts share this file because they are two sides of one API
redesign: the new ``{"module": {...}}` request shape must address plain
and parameterized models uniformly (structured ``400 unknown_module``
for bad specs, canonical collapse for degenerate params), while every
pre-redesign legacy request must keep its response body *byte for byte*
— three envelopes are pinned below."""

import json

import numpy as np
import pytest

from repro.eval import ExperimentConfig
from repro.serve import EstimationServer, ModelRegistry, ServerThread

from .conftest import SOCKET_TIMEOUT, request_full, request_once, request_raw

CONFIG = ExperimentConfig(n_characterization=300, seed=5)

pytestmark = pytest.mark.timeout(SOCKET_TIMEOUT)


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry(config=CONFIG, cache=None)
    instance = EstimationServer(registry, max_queue=64, jobs=2)
    with ServerThread(instance) as thread:
        registry.get("ripple_adder", 4)
        yield thread


def _bits():
    return np.random.default_rng(0).integers(0, 2, size=(6, 8)).tolist()


# ----------------------------------------------------------------------
# Legacy byte-identity: bodies captured with this exact CONFIG and
# stimulus.  json.dumps of these dicts (in this key order) must equal the
# raw response bytes.  The fields and their order are the wire contract;
# the average_charge figures follow the fitted coefficients, so they may
# change only with a CHARACTERIZATION_VERSION bump (captured at "3").
# ----------------------------------------------------------------------
PINNED_BITS_BODY = {
    "average_charge": 28.06567879222381,
    "method": "trace",
    "model": "ripple_adder/4",
    "source": "characterized",
    "input_bits": 8,
    "n_cycles": 5,
}
PINNED_ANALYTIC_BODY = {
    "average_charge": 24.068088023693583,
    "method": "distribution",
    "model": "ripple_adder/4",
    "source": "characterized",
    "input_bits": 8,
}
PINNED_404_BODY = {
    "error": {
        "code": "unknown_kind",
        "message": "unknown module kind 'nope_adder'",
    }
}


class TestLegacyByteIdentity:
    def test_bits_body_unchanged(self, server):
        status, raw = request_raw(
            server.port, "POST", "/v1/estimate/bits",
            {"kind": "ripple_adder", "width": 4, "bits": _bits()},
        )
        assert status == 200
        assert raw == json.dumps(PINNED_BITS_BODY).encode()

    def test_analytic_body_unchanged(self, server):
        status, raw = request_raw(
            server.port, "POST", "/v1/estimate/analytic",
            {
                "kind": "ripple_adder", "width": 4,
                "operand_stats": [
                    {"mean": 0.0, "variance": 9.0, "rho": 0.2}
                ] * 2,
            },
        )
        assert status == 200
        assert raw == json.dumps(PINNED_ANALYTIC_BODY).encode()

    def test_unknown_kind_404_unchanged(self, server):
        status, raw = request_raw(
            server.port, "POST", "/v1/estimate/bits",
            {"kind": "nope_adder", "width": 4, "bits": _bits()},
        )
        assert status == 404
        assert raw == json.dumps(PINNED_404_BODY).encode()

    def test_legacy_requests_flagged_via_header_only(self, server):
        status, body, headers = request_full(
            server.port, "POST", "/v1/estimate/bits",
            {"kind": "ripple_adder", "width": 4, "bits": _bits()},
        )
        assert status == 200
        assert headers.get("Deprecation") == "true"
        assert "deprecations" not in body


class TestModuleObject:
    def test_parity_with_legacy(self, server):
        bits = _bits()
        _, legacy = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"kind": "ripple_adder", "width": 4, "bits": bits},
        )
        status, modern = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "ripple_adder", "width": 4}, "bits": bits},
        )
        assert status == 200
        assert modern == legacy

    def test_no_deprecation_header(self, server):
        status, _body, headers = request_full(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "ripple_adder", "width": 4},
             "bits": _bits()},
        )
        assert status == 200
        assert "Deprecation" not in headers

    def test_variant_params(self, server):
        status, answer = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "trunc_adder", "width": 4,
                        "params": {"k": 2}},
             "bits": _bits()},
        )
        assert status == 200
        assert answer["model"] == "trunc_adder[k=2]/4"

    def test_spec_string_with_width_suffix(self, server):
        status, answer = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "trunc_adder[k=2]/4"}, "bits": _bits()},
        )
        assert status == 200
        assert answer["model"] == "trunc_adder[k=2]/4"

    def test_degenerate_collapses_to_parent(self, server):
        bits = _bits()
        _, parent = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"kind": "ripple_adder", "width": 4, "bits": bits},
        )
        status, collapsed = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "trunc_adder", "width": 4,
                        "params": {"k": 0}},
             "bits": bits},
        )
        assert status == 200
        assert collapsed["model"] == "ripple_adder/4"
        assert collapsed["average_charge"] == parent["average_charge"]

    def test_unknown_family_structured_400(self, server):
        status, body = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "nope_adder", "width": 4}, "bits": _bits()},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_module"
        assert "did you mean" in body["error"]["message"]

    def test_bad_params_structured_400(self, server):
        status, body = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "trunc_adder", "width": 4,
                        "params": {"k": 9}},
             "bits": _bits()},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_module"

    @pytest.mark.parametrize("payload", [
        {"module": {"kind": "constant_multiplier", "width": 4,
                    "params": {"c": 2 ** 15}}},
        {"module": {"kind": "constant_multiplier[c=-99999]/4"}},
        {"kind": "constant_multiplier[c=1000000000]", "width": 4},
    ])
    @pytest.mark.parametrize("endpoint", ["bits", "analytic"])
    def test_out_of_range_constant_is_structured_4xx(
        self, server, payload, endpoint
    ):
        body = dict(payload)
        if endpoint == "bits":
            body["bits"] = np.zeros((2, 4), dtype=int).tolist()
        else:
            body["operand_stats"] = [{"mean": 0.0, "variance": 4.0}]
        status, answer = request_once(
            server.port, "POST", f"/v1/estimate/{endpoint}", body
        )
        assert 400 <= status < 500
        assert "param c" in answer["error"]["message"]

    def test_missing_width_structured_400(self, server):
        status, body = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"module": {"kind": "trunc_adder"}, "bits": _bits()},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_module"

    def test_mixed_request_notes_deprecations(self, server):
        status, answer = request_once(
            server.port, "POST", "/v1/estimate/bits",
            {"kind": "cla_adder", "width": 8,
             "module": {"kind": "ripple_adder", "width": 4},
             "bits": _bits()},
        )
        assert status == 200
        assert answer["model"] == "ripple_adder/4"  # module object wins
        assert any("'kind'" in note for note in answer["deprecations"])


class TestSessionsModuleObject:
    def test_create_and_append(self, server):
        status, created = request_once(
            server.port, "POST", "/v1/sessions",
            {"module": {"kind": "lor_adder[k=1]", "width": 4}},
        )
        assert status == 201
        assert created["model"].startswith("lor_adder[k=1]/4")
        session_id = created["session_id"]
        status, running = request_once(
            server.port, "POST", f"/v1/sessions/{session_id}/append",
            {"bits": _bits()},
        )
        assert status == 200
        assert running["n_rows"] == 6
        assert running["n_transitions"] == 5
        status, _final = request_once(
            server.port, "DELETE", f"/v1/sessions/{session_id}"
        )
        assert status == 200

    def test_create_unknown_module_400(self, server):
        status, body = request_once(
            server.port, "POST", "/v1/sessions",
            {"module": {"kind": "trunc_adder", "width": 4,
                        "params": {"bogus": 1}}},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_module"

    def test_legacy_create_keeps_404(self, server):
        status, body = request_once(
            server.port, "POST", "/v1/sessions",
            {"kind": "nope_adder", "width": 4},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_kind"


class TestWarmupVariants:
    def test_manifest_accepts_both_spellings(self):
        from repro.serve.warmup import WarmupManifest

        manifest = WarmupManifest.from_dict({
            "version": 1,
            "entries": [
                {"kind": "trunc_adder", "widths": [4, 8],
                 "params": {"k": 2}},
                {"kind": "trunc_adder[k=2]", "widths": [8]},
                {"kind": "seg_adder[s=8]", "widths": [8]},
            ],
        })
        jobs = manifest.jobs()
        # Both spellings of trunc_adder[k=2]/8 dedupe to one job; the
        # degenerate seg_adder[s=8]/8 collapses to ripple_adder/8.
        assert jobs == [
            ("ripple_adder", 8, False),
            ("trunc_adder[k=2]", 4, False),
            ("trunc_adder[k=2]", 8, False),
        ]
        # Round-trips through to_dict preserve the user's spelling.
        again = WarmupManifest.from_dict(manifest.to_dict())
        assert again.jobs() == jobs

    def test_manifest_rejects_bad_specs(self):
        from repro.serve.warmup import WarmupManifest

        with pytest.raises(ValueError, match="unknown module kind"):
            WarmupManifest.from_dict({
                "version": 1,
                "entries": [{"kind": "nope", "widths": [4]}],
            })
        with pytest.raises(ValueError, match="unknown param"):
            WarmupManifest.from_dict({
                "version": 1,
                "entries": [{"kind": "trunc_adder", "widths": [4],
                             "params": {"zz": 1}}],
            })

    def test_warm_registry_serves_variants(self):
        from repro.serve.warmup import WarmupManifest, warm_registry

        registry = ModelRegistry(
            config=ExperimentConfig(n_characterization=120, seed=2),
            cache=None,
        )
        manifest = WarmupManifest.from_dict({
            "version": 1,
            "entries": [
                {"kind": "trunc_adder[k=1]", "widths": [4]},
            ],
        })
        report = warm_registry(registry, manifest)
        assert report.ok
        assert report.n_models == 1
        served = registry.get("trunc_adder", 4, mode="exact")
        assert served.kind == "trunc_adder[k=1]"
