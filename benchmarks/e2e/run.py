"""End-to-end benchmark of the Hd power macro-model system.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload char_narrow --seed 1 \\
        --seconds 25 --trace 0 [--out result.json]

Runs one workload (``WORKLOADS``), checks the program's answers, and
prints two JSON lines: the full result (stamp, sample counts, details),
then the summary ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Exits 1 when a correctness check fails and 2 when the
program's sources are missing.  Everything it builds or logs goes under
``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ("char_narrow", "char_wide", "serve_trace", "serve_stream")

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
    "model_error_pct": ("%", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
}

#: name -> (unit, better).  A layer a workload does not use reports 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "modules.build_ms": ("ms", "lower"),
    "circuit.compile_ms": ("ms", "lower"),
    "circuit.sim_share": ("ratio", "lower"),
    "circuit.sim_ns_per_transition": ("ns", "lower"),
    "circuit.transitions": ("count", "lower"),
    "core.stimulus_share": ("ratio", "lower"),
    "core.classify_share": ("ratio", "lower"),
    "core.fit_share": ("ratio", "lower"),
    "core.patterns_per_module": ("count", "lower"),
    "core.converged_ratio": ("ratio", "higher"),
    "runtime.overhead_share": ("ratio", "lower"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "loadgen.conn_wait_p50_ms": ("ms", "lower"),
    "serve.server_mean_ms.bits": ("ms", "lower"),
    "serve.server_mean_ms.streams": ("ms", "lower"),
    "serve.server_mean_ms.session_append": ("ms", "lower"),
    "serve.outside_ms": ("ms", "lower"),
    "serve.flush_mean_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.timer_flush_ratio": ("ratio", "lower"),
    "serve.cpu_ms_per_req": ("ms", "lower"),
    "serve.codec_ms": ("ms", "lower"),
    "core.append_inproc_ms": ("ms", "lower"),
    "session.append_span_ms": ("ms", "lower"),
    "obs.attributed_fraction": ("ratio", "higher"),
    "obs.trace_overhead": ("ratio", "lower"),
}

#: Fresh starts per run; ``setup_s`` is their median.
SETUP_STARTS = 3
#: A run must finish within 180 s; leave room for set-up and checks.
WORKER_TIMEOUT_S = 170


def child_env(build: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Points the program's native-kernel and model caches into ``build``
    so a run writes nothing outside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["REPRO_NATIVE_CACHE"] = str(build / "native")
    env["REPRO_CACHE_DIR"] = str(build / "cache")
    return env


def run_char(args, env: Dict[str, str]) -> Tuple[dict, List[float]]:
    """Time fresh worker starts, then run the workload in one more."""
    command = [sys.executable, "-m", "benchmarks.e2e.char"]
    setup = []
    for _ in range(SETUP_STARTS):
        started = time.monotonic()
        subprocess.run(command + ["--probe"], cwd=ROOT, env=env, check=True,
                       timeout=120)
        setup.append(time.monotonic() - started)
    worker = subprocess.run(
        command + ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        raise RuntimeError(f"worker failed:\n{worker.stderr}")
    return json.loads(worker.stdout.strip().splitlines()[-1]), setup


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def metric_block(values: Dict[str, float], trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric.

    A workload must report every end-to-end metric; a per-layer metric it
    does not report is a layer it does not use, reported as 0.
    """
    declared = PER_LAYER if trace else END_TO_END
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise ValueError(f"undeclared metrics: {unknown}")
    if trace:
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, (unit, _) in declared.items()}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the servers and workers started below are
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    env = child_env(build)
    os.environ.update(REPRO_NATIVE_CACHE=env["REPRO_NATIVE_CACHE"],
                      REPRO_CACHE_DIR=env["REPRO_CACHE_DIR"])
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy

    if args.workload.startswith("char"):
        result, setup = run_char(args, env)
    else:
        from benchmarks.e2e import serve

        result = serve.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT, env, build, SETUP_STARTS)
        setup = result.pop("setup_s")
    values = result.get("per_layer") or result["e2e"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    correct = not result["errors"] and result["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metric_block(values, bool(args.trace)),
    }
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": {
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "native_status": result["detail"].pop("native_status"),
        },
        "errors": result["errors"],
        "setup_samples_s": setup,
        "detail": result["detail"],
        **summary,
    }
    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if not result["detail"].get("valid", True):
        print("warning: load generator ran late (lag p99 above limit); "
              "treat this run's latencies as invalid", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    print(json.dumps(document))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory; the package imports
    # need the repository root instead.
    sys.path[0] = str(ROOT)
    sys.exit(main())
