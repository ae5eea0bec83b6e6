"""Cold library characterization, run in a fresh worker process.

Usage (the runner spawns it; ``PYTHONPATH`` must hold the repo root and
``src``)::

    python3 -m benchmarks.e2e.char --probe
    python3 -m benchmarks.e2e.char --workload char_narrow --seed 1 \\
        --seconds 25 --trace 0

``--probe`` imports the program, readies the native kernel and exits: the
runner times it as one fresh start.  Otherwise the worker characterizes
its job list pass after pass through ``characterize_jobs`` (one job per
call, ``jobs=1``, no cache, the stock configuration) in an order drawn
from ``--seed`` until the time is up, checks the results and prints one
JSON object.

Every pass runs the same jobs with the same seeds, so each pass must
produce bit-identical coefficients.  With ``--trace 1`` every second pass
runs under ``repro.obs.trace``; the per-layer split comes from the spans
the program records plus the work it does not span (module build,
netlist compile, stimulus generation, classification), which is timed by
replaying the same public calls on the same sizes and seeds afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.circuit.native import native_kernel, native_status
from repro.core import characterize as stimulus_generators
from repro.core.events import classify_transitions
from repro.eval.harness import ExperimentConfig
from repro.modules.library import make_module
from repro.obs import tracing
from repro.obs.events import EVENTS
from repro.runtime.service import (
    CharacterizationJob,
    characterization_seed,
    characterize_jobs,
)

from benchmarks.e2e import accuracy, procfs, spans, stats

#: The 16 library families that are not multipliers, MACs or approximate
#: variants: stimulus generation dominates their characterization.
NARROW_KINDS = (
    "absval", "alu", "barrel_shifter", "carry_select_adder", "cla_adder",
    "comparator", "incrementer", "kogge_stone_adder",
    "leading_zero_counter", "min_max", "mux_word", "parity", "popcount",
    "register_bank", "ripple_adder", "subtractor",
)
#: Multiplier-class families: gate-level simulation dominates.
WIDE_KINDS = (
    "csa_multiplier", "booth_wallace_multiplier", "dadda_multiplier", "mac",
    "csa_reordered_multiplier", "mac_reordered",
)

JOBS: Dict[str, List[Tuple[str, int, bool]]] = {
    "char_narrow": [
        (kind, width, False) for width in (8, 16, 32) for kind in NARROW_KINDS
    ],
    "char_wide": [
        (kind, width, enhanced)
        for width in (16, 24) for kind in WIDE_KINDS
        for enhanced in (False, True)
    ],
}

#: Characterizations a run always completes, whatever the time budget:
#: enough for a p90 with ten samples beyond it, and for every job of
#: either list to run at least twice.
MIN_JOBS = 100


def fingerprint(result) -> str:
    """Digest of every fitted coefficient, bit for bit."""
    digest = hashlib.sha256(result.model.coefficients.tobytes())
    if result.enhanced is not None:
        digest.update(repr(sorted(result.enhanced.coefficients.items()))
                      .encode())
    return digest.hexdigest()


def transitions_counted() -> float:
    return sum(
        value for name, value in EVENTS.snapshot().items()
        if name.startswith("repro_sim_transitions_total")
    )


def replay(job: Tuple[str, int, bool], config, records) -> Dict[str, object]:
    """Time the unspanned work of one traced job by doing it again.

    Same calls, sizes and seeds as inside ``characterize_module``: the
    module build, the netlist compile, and per ``characterize.batch`` the
    stimulus draw (with the seam row stitched on) and the classification.
    """
    kind, width, enhanced = job
    started = time.perf_counter()
    module = make_module(kind, width)
    build = time.perf_counter() - started
    started = time.perf_counter()
    module.compiled
    compile_netlist = time.perf_counter() - started

    (characterize,) = [r for r in records if r["name"] == "characterize"]
    generate = getattr(
        stimulus_generators,
        f"{characterize['attrs']['stimulus']}_input_bits",
    )
    batches = sorted(
        (r for r in records if r["name"] == "characterize.batch"),
        key=lambda r: r["start"],
    )
    rng = np.random.default_rng(
        characterization_seed(config.seed, width, enhanced, kind)
    )
    last = None
    stimulus, classify = [], []
    for batch in batches:
        started = time.perf_counter()
        bits = generate(batch["attrs"]["rows"], module.input_bits,
                        seed=int(rng.integers(0, 2**31)))
        if last is not None:
            bits = np.vstack([last[None, :], bits])
        last = bits[-1]
        middle = time.perf_counter()
        classify_transitions(bits)
        classify.append(time.perf_counter() - middle)
        stimulus.append(middle - started)
    return {"build": build, "compile": compile_netlist,
            "stimulus": stimulus, "classify": classify}


def attribute(records, timing) -> Tuple[List[dict], Dict[str, float]]:
    """Graft the replayed work into one job's span tree.

    Returns the completed records and this job's layer seconds.
    """
    records = [dict(r) for r in records]
    (service,) = [r for r in records
                  if r["name"] == "service.characterize_jobs"]
    spans.add_leaf(records, service, "modules.build", timing["build"])
    spans.add_leaf(records, service, "circuit.compile", timing["compile"])
    batches = sorted(
        (r for r in records if r["name"] == "characterize.batch"),
        key=lambda r: r["start"],
    )
    for batch, stim, cls in zip(batches, timing["stimulus"],
                                timing["classify"]):
        spans.add_leaf(records, batch, "core.stimulus", stim)
        spans.add_leaf(records, batch, "core.classify", cls)
    return records, spans.totals_by_name(records)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = JOBS[workload]
    order = [int(i)
             for i in np.random.default_rng(seed).permutation(len(jobs))]
    # The stock configuration, its seed included: how many patterns a job
    # needs to converge depends on its stimulus seed, so seeding it per run
    # would move the per-module median by 10% between runs.
    config = ExperimentConfig()

    times: List[Tuple[int, float, bool]] = []  # (job, seconds, traced)
    first_result = {}
    traced_jobs: List[Tuple[int, float, list, float]] = []
    errors: List[str] = []
    failed = 0
    pass_rates: List[float] = []  # jobs per second of each whole pass
    started = time.perf_counter()
    n_pass = 0
    done = False
    while not done:
        traced = trace and n_pass % 2 == 1
        pass_started = time.perf_counter()
        for index in order:
            job = CharacterizationJob(*jobs[index])
            before = transitions_counted() if traced else 0.0
            t0 = time.perf_counter()
            with (tracing.trace("bench.job") if traced
                  else contextlib.nullcontext()) as ctx:
                report = characterize_jobs(
                    [job], config=config, jobs=1, cache=None, strict=False,
                )
            elapsed = time.perf_counter() - t0
            if traced:
                traced_jobs.append((index, elapsed, ctx.records(),
                                    transitions_counted() - before))
            times.append((index, elapsed, traced))
            result = report.results[0]
            if result is None:
                failed += 1
                errors.append(f"{job.label}: {report.errors[0]}")
            elif (fingerprint(first_result.setdefault(index, result))
                  != fingerprint(result)):
                errors.append(f"{job.label}: coefficients changed between "
                              f"passes")
            if (time.perf_counter() - started >= seconds
                    and len(times) >= MIN_JOBS):
                done = True
                break
        else:
            pass_rates.append(
                len(order) / (time.perf_counter() - pass_started)
            )
        n_pass += 1
        if n_pass == 1:
            # The first pass peaks 10% higher or lower depending on the
            # job order; from the second pass on every order peaks alike.
            procfs.reset_peak_rss()
    peak_rss = procfs.peak_rss_mb()

    out: dict = {
        "attempted": len(times),
        "failed": failed,
        "errors": errors,
        "detail": {
            "passes_started": n_pass,
            "jobs_per_pass": len(jobs),
            "config_seed": config.seed,
            "native_status": native_status(),
        },
    }
    results = list(first_result.values())
    if trace:
        out["per_layer"] = per_layer(
            jobs, config, times, traced_jobs, results
        )
        return out
    tail_q = stats.tail_percentile(MIN_JOBS)
    latency = stats.summarize([t * 1e3 for _, t, _ in times], tail_q)
    fitted = []
    for index, result in first_result.items():
        kind, width, _ = jobs[index]
        fitted.append((make_module(kind, width), result.model,
                       result.enhanced))
    out["e2e"] = {
        # A median over passes ignores a pass the host ran slowly.
        "throughput_per_s": float(np.median(pass_rates)),
        "latency_p50_ms": latency["p50"],
        "latency_tail_ms": latency["tail"],
        "model_error_pct": accuracy.mean_abs_error_pct(fitted),
        "peak_rss_mb": peak_rss,
        "success_ratio": (len(times) - failed) / len(times),
    }
    out["detail"]["latency_ms"] = latency
    return out


def per_layer(jobs, config, times, traced_jobs, results) -> dict:
    timings = {}
    layer: Dict[str, float] = {}
    wall = 0.0
    traces = []
    transitions = 0.0
    for index, elapsed, records, counted in traced_jobs:
        if index not in timings:
            timings[index] = replay(jobs[index], config, records)
        grafted, totals = attribute(records, timings[index])
        wall += elapsed
        traces.append(grafted)
        transitions += counted
        for name, value in totals.items():
            layer[name] = layer.get(name, 0.0) + value
        # Time in characterize_jobs that no layer below it accounts for.
        layer["runtime.overhead"] = layer.get("runtime.overhead", 0.0) + (
            elapsed - totals.get("characterize", 0.0)
            - totals.get("modules.build", 0.0)
            - totals.get("circuit.compile", 0.0)
        )
    n = len(traced_jobs)
    sim = layer.get("sim.stream", 0.0)
    # Per job, its traced median over its untraced median: comparing the
    # same work, so the job mix of a partial pass cannot tilt the ratio.
    by_job: Dict[int, Tuple[List[float], List[float]]] = {}
    for index, elapsed, traced in times:
        by_job.setdefault(index, ([], []))[traced].append(elapsed)
    ratios = [np.median(traced) / np.median(plain)
              for plain, traced in by_job.values() if plain and traced]
    return {
        "modules.build_ms": layer.get("modules.build", 0.0) / n * 1e3,
        "circuit.compile_ms": (layer.get("circuit.compile", 0.0)
                               + layer.get("program.compile", 0.0))
        / n * 1e3,
        "circuit.sim_share": sim / wall,
        "circuit.sim_ns_per_transition": sim / transitions * 1e9,
        "circuit.transitions": transitions / n,
        "core.stimulus_share": layer.get("core.stimulus", 0.0) / wall,
        "core.classify_share": layer.get("core.classify", 0.0) / wall,
        "core.fit_share": layer.get("fit.update", 0.0) / wall,
        "core.patterns_per_module": float(
            np.mean([r.n_patterns for r in results])
        ),
        "core.converged_ratio": float(
            np.mean([r.converged for r in results])
        ),
        "runtime.overhead_share": layer["runtime.overhead"] / wall,
        "obs.attributed_fraction": spans.attributed_fraction(traces, wall),
        "obs.trace_overhead": float(np.median(ratios)) - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    native_kernel()
    if args.probe:
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
