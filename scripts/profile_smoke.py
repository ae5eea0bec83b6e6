"""Smoke-test the tracing/profiling subsystem end to end.

The ``make profile-smoke`` target (and the CI gate) asserts, in order:

1. ``repro-power characterize --profile out.json --json`` produces a
   Chrome ``about://tracing``-loadable artifact (schema-validated with
   :func:`repro.obs.validate_chrome`) whose events cover every layer —
   the CLI root, the characterization loop, the simulation kernel and
   the model fit — and a stdout envelope that parses as one JSON object
   naming that artifact;
2. the parallel fan-out path (``--jobs 2``) ships worker spans back
   across the process boundary into the same trace;
3. a traced serve request (``X-Repro-Trace: 1``) returns a span summary
   and an embedded, valid Chrome trace in its response envelope, and the
   traced-request exemplar shows up on ``/metrics``.

Everything runs in-process on throwaway models, so the whole check takes
a few seconds.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402
from repro.eval import ExperimentConfig  # noqa: E402
from repro.obs import validate_chrome  # noqa: E402
from repro.serve import (  # noqa: E402
    EstimationServer,
    ModelRegistry,
    ServerThread,
)

KIND = "ripple_adder"
WIDTH = 4


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)
    print(f"  ok: {message}")


def run_cli(argv):
    """Run the CLI in-process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def smoke_cli_profile(workdir: Path) -> None:
    print("== CLI --profile: Chrome artifact + JSON envelope")
    trace_path = workdir / "characterize_trace.json"
    code, out, err = run_cli([
        "characterize", "--kind", KIND, "--width", str(WIDTH),
        "--patterns", "400", "--json", "--profile", str(trace_path),
    ])
    check(code == 0, "characterize --json --profile exits 0")
    envelope = json.loads(out)
    check(envelope["status"] == "ok", "envelope status ok")
    check(str(trace_path) in envelope["artifacts"],
          "envelope names the trace artifact")
    loaded = json.loads(trace_path.read_text())
    problems = validate_chrome(loaded)
    check(problems == [], f"chrome trace validates ({problems})")
    names = {event["name"] for event in loaded["traceEvents"]}
    for expected in ("cli.characterize", "service.characterize_jobs",
                     "characterize", "sim.stream", "fit.update"):
        check(expected in names, f"span {expected!r} present in artifact")
    check("profile written" in err, "span tree printed on stderr")


def smoke_fanout_profile(workdir: Path) -> None:
    print("== CLI --profile across the process fan-out (--jobs 2)")
    trace_path = workdir / "fanout_trace.json"
    code, out, _ = run_cli([
        "characterize", "--kind", KIND, "--width", "3,4",
        "--patterns", "300", "--jobs", "2",
        "--json", "--profile", str(trace_path),
    ])
    check(code == 0, "parallel characterize exits 0")
    loaded = json.loads(trace_path.read_text())
    check(validate_chrome(loaded) == [], "fan-out chrome trace validates")
    events = loaded["traceEvents"]
    own_pid = {e["pid"] for e in events if e["name"] == "cli.characterize"}
    worker_pids = {e["pid"] for e in events if e["name"] == "characterize"}
    check(len([e for e in events if e["name"] == "characterize"]) == 2,
          "both worker characterize spans absorbed")
    check(bool(worker_pids - own_pid),
          "worker spans carry a different pid (true cross-process trace)")


def smoke_serve_trace() -> None:
    print("== traced serve request: X-Repro-Trace: 1")
    config = ExperimentConfig(n_characterization=300, seed=5)
    registry = ModelRegistry(config=config, cache=None)
    served = registry.get(KIND, WIDTH)
    rng = np.random.default_rng(3)
    bits = rng.integers(
        0, 2, size=(16, served.module.input_bits)
    ).tolist()
    body = json.dumps(
        {"kind": KIND, "width": WIDTH, "bits": bits}
    ).encode()
    server = EstimationServer(registry, jobs=2)

    def go(port, headers=None, method="POST",
           path="/v1/estimate/bits", payload=body):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request(method, path, payload, headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    with ServerThread(server) as thread:
        status, raw = go(thread.port, headers={"X-Repro-Trace": "1"})
        check(status == 200, "traced request answers 200")
        answer = json.loads(raw)
        check("trace" in answer, "response envelope carries a trace block")
        trace = answer["trace"]
        check(bool(trace["trace_id"]), "trace id present")
        check("serve.request" in trace["spans"],
              "span summary includes serve.request")
        check("batch.flush" in trace["spans"],
              "the batch.flush span joined the request trace")
        check(validate_chrome(trace["chrome"]) == [],
              "embedded chrome trace validates")

        status, raw = go(thread.port)
        check(status == 200 and "trace" not in json.loads(raw),
              "untraced request pays no trace cost")

        status, page = go(thread.port, method="GET", path="/metrics",
                          payload=None)
        text = page.decode()
        check(status == 200, "/metrics answers 200")
        check("serve_traced_requests_total 1" in text,
              "traced-request counter on /metrics")
        check('serve_trace_span_seconds{span="serve.request"}' in text,
              "span exemplar gauge on /metrics")
        check("repro_batch_requests_total" in text,
              "shared global counters rendered on the same page")


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-profile-smoke-") as tmp:
        workdir = Path(tmp)
        smoke_cli_profile(workdir)
        smoke_fanout_profile(workdir)
    smoke_serve_trace()
    print(f"PROFILE SMOKE PASSED in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
