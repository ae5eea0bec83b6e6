"""Append one entry to the end-to-end benchmark trajectory, BENCH_e2e.json.

Runs ``benchmarks/e2e/run.py --out`` for every workload, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics), and appends ``{"stamp", "seed", "seconds", "workloads"}`` to
``BENCH_e2e.json`` in the repository root.  ``workloads`` maps each
workload to its two summaries (``{"correct", "attempted", "failed",
"metrics"}``); ``stamp`` is the first run's stamp (commit, nproc, Python,
numpy, native kernel status without the host's cache path) plus the
wall-clock time and whether the working tree had uncommitted changes
(``dirty``).  Every entry is measured the same way, so entries stay
comparable: seed 1 and the ``run_seconds`` of ``BENCHMARK.json``.  This is
the ``make bench-e2e`` target::

    python3 scripts/bench_e2e.py

After appending, it prints one row per metric of every workload: the
previous entry's value, the new one and their ratio (new / previous);
metrics that read 0 in both entries are ones the workload does not
measure and are left out.  An
end-to-end metric that is worse than the previous entry by more than its
``BENCHMARK.json`` bound (a relative change) is marked ``PAST BOUND``.

Exits 1 when any run reports a failed correctness check (the entry is
still appended, with ``"correct": false``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_e2e.json"
SEED = 1
WORKLOADS = ("char_narrow", "char_wide", "serve_trace", "serve_stream")
SUMMARY_KEYS = ("correct", "attempted", "failed", "metrics")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the full result document."""
    out = ROOT / ".bench_build" / f"e2e-{workload}-trace{trace}.json"
    out.parent.mkdir(exist_ok=True)
    command = [
        sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if not out.exists():
        raise RuntimeError(
            f"{workload} --trace {trace} wrote no result:\n{done.stderr}"
        )
    document = json.loads(out.read_text())
    out.unlink()
    return document


def metric_values(entry: dict, workload: str) -> Dict[str, float]:
    """Every metric of one workload in an entry, both runs merged."""
    runs = entry["workloads"].get(workload, {})
    return {name: metric["value"] for run in runs.values()
            for name, metric in run["metrics"].items()}


def past_bound(previous: float, new: float, better: str,
               bound: float) -> bool:
    """Whether ``new`` is worse than ``previous`` by more than ``bound``."""
    if better == "lower":
        return new > previous * (1.0 + bound)
    return new < previous * (1.0 - bound)


def ratio_table(previous: dict, new: dict, benchmark: dict) -> List[str]:
    """Rows of ``workload metric previous new ratio [PAST BOUND]``."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    rows = [f"{'workload':<13} {'metric':<36} {'previous':>12} "
            f"{'new':>12} {'ratio':>7}"]
    for workload in WORKLOADS:
        before = metric_values(previous, workload)
        for name, value in metric_values(new, workload).items():
            old = before.get(name)
            if old == 0 and value == 0:
                continue  # not measured by this workload
            if old is None:
                ratio, mark = "new", ""
            else:
                ratio = f"{value / old:7.3f}" if old else "-"
                spec = bounds.get(name)
                mark = ("  PAST BOUND" if spec and past_bound(
                    old, value, spec["better"], spec["bound"]) else "")
            shown = "-" if old is None else f"{old:12.4g}"
            rows.append(f"{workload:<13} {name:<36} {shown:>12} "
                        f"{value:12.4g} {ratio:>7}{mark}")
    return rows


def tree_dirty() -> bool:
    """Whether tracked files differ from the commit (False without git)."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return done.returncode == 0 and bool(done.stdout.strip())


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    dirty = tree_dirty()
    stamp = None
    workloads = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            document = run_once(workload, SEED, seconds, trace)
            if stamp is None:
                stamp = dict(document["stamp"], time=time.time(),
                             dirty=dirty)
                stamp["native_status"] = (
                    stamp["native_status"].split(" (")[0]
                )
            workloads.setdefault(workload, {})[f"trace{trace}"] = {
                key: document[key] for key in SUMMARY_KEYS
            }
            print(f"{workload} --trace {trace}: "
                  f"correct={document['correct']}", flush=True)
    entry = {"stamp": stamp, "seed": SEED, "seconds": seconds,
             "workloads": workloads}
    history = (json.loads(TRAJECTORY.read_text())
               if TRAJECTORY.exists() else [])
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended entry {len(history)} to {TRAJECTORY.name}")
    if len(history) > 1:
        print(f"entry {len(history)} / entry {len(history) - 1}:")
        print("\n".join(ratio_table(history[-2], entry, benchmark)))
    correct = all(run["correct"] for runs in workloads.values()
                  for run in runs.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
