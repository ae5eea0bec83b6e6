"""Smoke-test the technology calibration layer end to end.

The ``make tech-smoke`` target (and the CI gate): exercises the
``repro.tech`` subsystem the way deployment uses it, asserting in order:

1. a full ``pae_report`` sweep — one adder family and one multiplier
   family, three widths, three nodes — characterizes each model once,
   passes the :func:`~repro.tech.report.validate_pae` schema check, and
   shows the end-of-Dennard shape: energy per op strictly decreasing and
   leakage strictly increasing as the node shrinks;
2. the node loop is pure post-hoc rescaling: every cell's normalized
   ``average_charge_units`` is identical across nodes, and the exact-CV²
   identity ``energy = charge · V_dd`` holds to 1e-12 relative;
3. a live server answers ``/v1/estimate/bits`` with a complete
   ``physical`` block when the request carries ``node``, with the
   normalized figures bit-identical to the same request without one
   (calibration never perturbs the model path);
4. an unknown node is a 400 ``bad_request``, not a 5xx.

Everything runs in-process with a throwaway cache; the HTTP traffic is
real, over loopback sockets.
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.eval import ExperimentConfig  # noqa: E402
from repro.runtime import ModelCache  # noqa: E402
from repro.serve import (  # noqa: E402
    EstimationServer,
    ModelRegistry,
    ServerThread,
)
from repro.tech import (  # noqa: E402
    get_node,
    pae_report,
    render_pae,
    validate_pae,
)

KINDS = ("ripple_adder", "csa_multiplier")
WIDTHS = (4, 6, 8)
NODES = ("90nm", "45nm", "22nm")
CONFIG = ExperimentConfig(n_characterization=300, seed=5)


def request_once(port: int, method: str, path: str, body: bytes = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body,
                     {"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def check_pae_sweep(session: repro.Session) -> None:
    report = pae_report(
        KINDS, WIDTHS, NODES, session=session,
        n_patterns=300, seed=2,
    )
    print(render_pae(report))
    envelope = report.to_dict()
    validate_pae(envelope)
    # Round-trip through JSON the way -o / CI consumers see it.
    validate_pae(json.loads(json.dumps(envelope)))
    assert len(report.cells) == len(KINDS) * len(WIDTHS) * len(NODES)

    by_model = {}
    for cell in report.cells:
        by_model.setdefault((cell.kind, cell.width), []).append(cell)
    for (kind, width), cells in by_model.items():
        ordered = sorted(
            cells, key=lambda c: get_node(c.node).feature_nm, reverse=True
        )
        energies = [c.energy_joules for c in ordered]
        leakages = [c.leakage_watts for c in ordered]
        charges = {c.average_charge_units for c in ordered}
        assert energies == sorted(energies, reverse=True), (
            f"{kind}/{width}: energy not decreasing across shrink: {energies}"
        )
        assert leakages == sorted(leakages), (
            f"{kind}/{width}: leakage not increasing across shrink: {leakages}"
        )
        assert len(charges) == 1, (
            f"{kind}/{width}: node loop perturbed the normalized "
            f"estimate: {charges}"
        )
        for cell in ordered:
            expected = cell.charge_coulombs * cell.vdd
            deviation = abs(cell.energy_joules - expected)
            assert deviation <= 1e-12 * expected, (
                f"{kind}/{width}@{cell.node}: E != Q*Vdd "
                f"(|Δ| = {deviation:.2e})"
            )
    print(f"  pae: {len(report.cells)} cells validated, energy/leakage "
          f"trends and CV^2 identity hold")


def check_served_calibration(port: int) -> None:
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(48, 8)).tolist()
    base = {"kind": "ripple_adder", "width": 4, "bits": bits}

    status, payload = request_once(
        port, "POST", "/v1/estimate/bits", json.dumps(base).encode()
    )
    assert status == 200, payload
    plain = json.loads(payload)
    assert "physical" not in plain, (
        "node-less response grew a physical block"
    )

    calibrated_req = dict(base, node="45nm")
    status, payload = request_once(
        port, "POST", "/v1/estimate/bits",
        json.dumps(calibrated_req).encode(),
    )
    assert status == 200, payload
    calibrated = json.loads(payload)
    physical = calibrated.get("physical")
    assert physical is not None, "calibrated response lacks physical block"
    for key in ("node", "vdd", "f_clk", "charge_coulombs",
                "energy_joules", "power_watts", "area_m2",
                "leakage_watts"):
        assert key in physical, f"physical block missing {key!r}: {physical}"
    assert physical["node"] == "45nm"
    assert calibrated["average_charge"] == plain["average_charge"], (
        "calibration perturbed the normalized estimate"
    )
    print(f"  serve: physical block present ({physical['power_watts']:.3e} W "
          f"at {physical['node']}), normalized figures bit-identical")

    bad = dict(base, node="3nm")
    status, payload = request_once(
        port, "POST", "/v1/estimate/bits", json.dumps(bad).encode()
    )
    assert status == 400, (status, payload)
    error = json.loads(payload)
    assert error["error"]["code"] == "bad_request", error
    print("  serve: unknown node rejected with 400 bad_request")


def main() -> int:
    print(f"tech smoke: {'+'.join(KINDS)} x {WIDTHS} x {NODES}")
    with tempfile.TemporaryDirectory() as cache_dir:
        session = repro.Session(cache_dir=cache_dir, config=CONFIG)
        check_pae_sweep(session)
        registry = ModelRegistry(config=CONFIG, cache=ModelCache(cache_dir))
        server = EstimationServer(registry, max_queue=64, jobs=1)
        thread = ServerThread(server).start()
        try:
            check_served_calibration(thread.port)
        finally:
            thread.stop()
        assert not thread._thread.is_alive(), "server thread leaked"
    print("tech smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
