"""Serving-layer benchmark: micro-batched vs per-request estimation.

Short trace requests are dominated by fixed per-call overhead (argument
validation, classification setup), not numpy work — the regime the
:class:`~repro.serve.batching.MicroBatcher` targets.  This benchmark
measures that effect at the engine level on a 16-bit CSA multiplier
model: ``estimate_batch_from_bits`` over coalesced batches vs a
per-request ``estimate_from_bits`` loop, results checked for exact
parity (the batch API drops the spurious boundary cycles).

Serving performance over HTTP (open-loop latency, capacity, streaming
sessions) is measured by the end-to-end benchmark in ``benchmarks/e2e``.
``BENCH_serve.json`` at the repository root keeps the earlier HTTP and
fleet measurements as history.
"""

import os
import time

import numpy as np

MODULE_KIND = "csa_multiplier"
MODULE_WIDTH = 16
SMALL = os.environ.get("REPRO_BENCH_SCALE", "full") == "small"
#: Patterns for the one-off characterization; model quality is irrelevant
#: here, the benchmark only exercises the serving path.
N_CHARACTERIZATION = 300 if SMALL else 800
#: Rows per request — short traces, where batching pays.
TRACE_ROWS = 24
BATCH = 64


def _make_served(seed=5):
    """Materialize the benchmark model through the registry (no cache)."""
    from repro.eval import ExperimentConfig
    from repro.serve import ModelRegistry

    config = ExperimentConfig(n_characterization=N_CHARACTERIZATION,
                              seed=seed)
    registry = ModelRegistry(config=config, cache=None)
    return registry.get(MODULE_KIND, MODULE_WIDTH)


def _request_matrices(served, n_requests, seed=11):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, size=(TRACE_ROWS, served.module.input_bits))
        for _ in range(n_requests)
    ]


def _best_of(fn, repeats):
    result, elapsed = None, float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - started)
    return result, elapsed


def run_engine_comparison(served, matrices, repeats):
    """Per-request loop vs coalesced batches; exact-parity checked."""
    estimator = served.estimator

    def unbatched():
        return [estimator.estimate_from_bits(m) for m in matrices]

    def batched():
        results = []
        for start in range(0, len(matrices), BATCH):
            results.extend(estimator.estimate_batch_from_bits(
                matrices[start:start + BATCH]
            ))
        return results

    loop_results, loop_seconds = _best_of(unbatched, repeats)
    batch_results, batch_seconds = _best_of(batched, repeats)
    worst = max(
        abs(a.average_charge - b.average_charge)
        for a, b in zip(loop_results, batch_results)
    )
    assert worst < 1e-9, f"batch parity broken: max deviation {worst}"
    return loop_seconds / batch_seconds


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_estimate_unbatched(benchmark):
    from .conftest import run_once

    served = _make_served()
    matrices = _request_matrices(served, n_requests=128)
    results = run_once(
        benchmark,
        lambda: [served.estimator.estimate_from_bits(m) for m in matrices],
    )
    assert len(results) == len(matrices)


def test_estimate_batched(benchmark):
    from .conftest import run_once

    served = _make_served()
    matrices = _request_matrices(served, n_requests=128)
    results = run_once(
        benchmark,
        lambda: served.estimator.estimate_batch_from_bits(matrices),
    )
    assert len(results) == len(matrices)


def test_batched_speedup_floor():
    """The acceptance gate: coalescing must beat per-request by >= 3x."""
    served = _make_served()
    matrices = _request_matrices(served, n_requests=256)
    speedup = run_engine_comparison(served, matrices, repeats=3)
    assert speedup >= 3.0, (
        f"micro-batching speedup {speedup:.2f}x below 3x floor"
    )
