"""Simulation kernel benchmark: the compiled engine vs the bool reference.

Times a glitch-aware reference simulation of a 16-bit CSA multiplier under
both engines, checks the bit-for-bit parity contract and the < 2%
disabled-tracing budget, and prints the measurement.  The performance
trajectory lives in ``BENCH_e2e.json`` (``make bench-e2e``);
``BENCH_simulate.json`` is kept as the history of this script's earlier
runs and is no longer appended to.

Two entry points:

* ``make bench-sim`` / ``python benchmarks/bench_simulate.py`` — standalone,
  best-of-N wall-clock timing, printed;
* ``pytest benchmarks/ --benchmark-only`` — the ``test_*`` functions below,
  timed by pytest-benchmark like every other benchmark module.
"""

import os
import time

import numpy as np

from repro.circuit.power import PowerSimulator
from repro.modules import make_module

MODULE_KIND = "csa_multiplier"
MODULE_WIDTH = 16
SMALL = os.environ.get("REPRO_BENCH_SCALE", "full") == "small"
N_PATTERNS = 2049 if SMALL else 8193
#: Best-of-N guards against scheduler noise on shared hosts.
REPEATS = 5


def _stream(module, n_patterns, seed=7):
    rng = np.random.default_rng(seed)
    n_inputs = len(module.compiled.netlist.inputs)
    return rng.integers(0, 2, size=(n_patterns, n_inputs)).astype(bool)


def _best_of(simulator, bits, repeats=REPEATS):
    trace, elapsed = None, float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        trace = simulator.simulate(bits)
        elapsed = min(elapsed, time.perf_counter() - started)
    return trace, elapsed


def run_comparison(n_patterns=N_PATTERNS, glitch_weight=1.0, repeats=REPEATS):
    """Time both engines on the same stream; returns the record.

    Raises ``AssertionError`` if the compiled engine disagrees with the
    boolean reference — a benchmark of a wrong kernel is worse than no
    benchmark.
    """
    module = make_module(MODULE_KIND, MODULE_WIDTH)
    bits = _stream(module, n_patterns)
    traces, seconds = {}, {}
    for engine in ("bool", "compiled"):
        simulator = PowerSimulator(
            module.compiled,
            glitch_aware=True,
            glitch_weight=glitch_weight,
            engine=engine,
        )
        traces[engine], seconds[engine] = _best_of(
            simulator, bits, repeats=repeats
        )
    assert np.array_equal(
        traces["bool"].charge, traces["compiled"].charge
    ), "engine parity broken: charge differs (bool vs compiled)"
    assert np.array_equal(
        traces["bool"].total_toggles, traces["compiled"].total_toggles
    ), "engine parity broken: toggle counts differ (bool vs compiled)"
    return {
        "module": f"{MODULE_KIND}/{MODULE_WIDTH}",
        "n_patterns": n_patterns,
        "glitch_weight": glitch_weight,
        "repeats": repeats,
        "bool_seconds": seconds["bool"],
        "compiled_seconds": seconds["compiled"],
        "compiled_vs_bool_speedup": seconds["bool"] / seconds["compiled"],
        "total_toggles": int(traces["bool"].total_toggles.sum()),
    }


def measure_observability(record):
    """Traced exemplar + the < 2% disabled-tracing overhead guard.

    Two measurements land in the record: the span summary of one
    traced run (what ``--profile`` would show), and the disabled-tracing
    overhead — spans the run *would* open times the measured cost of one
    disabled ``span()`` call, relative to the compiled-engine wall clock.
    The product form is stable where an end-to-end re-run diff would
    drown in scheduler noise.
    """
    from repro.obs import span, span_summary, tracing

    module = make_module(MODULE_KIND, MODULE_WIDTH)
    bits = _stream(module, record["n_patterns"])
    simulator = PowerSimulator(module.compiled, engine="compiled")
    with tracing.trace("bench.simulate", engine="compiled") as ctx:
        simulator.simulate(bits)
    record["span_summary"] = span_summary(ctx)
    spans_opened = len(ctx.records()) - 1  # minus the bench root span

    n = 20_000
    started = time.perf_counter()
    for _ in range(n):
        with span("bench.noop"):
            pass
    disabled_cost = (time.perf_counter() - started) / n
    overhead = spans_opened * disabled_cost / record["compiled_seconds"]
    record["tracing_spans"] = spans_opened
    record["tracing_disabled_overhead"] = overhead
    assert overhead < 0.02, (
        f"disabled-tracing overhead {overhead * 100:.3f}% breaks "
        f"the 2% budget"
    )
    return record


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_simulate_bool_engine(benchmark):
    from .conftest import run_once

    module = make_module(MODULE_KIND, MODULE_WIDTH)
    bits = _stream(module, N_PATTERNS)
    simulator = PowerSimulator(module.compiled, engine="bool")
    trace = run_once(benchmark, lambda: simulator.simulate(bits))
    assert trace.n_cycles == N_PATTERNS - 1


def test_simulate_compiled_engine(benchmark):
    from .conftest import run_once

    module = make_module(MODULE_KIND, MODULE_WIDTH)
    bits = _stream(module, N_PATTERNS)
    simulator = PowerSimulator(module.compiled, engine="compiled")
    simulator.simulate(bits[:130])  # warm: tape compile + native build
    trace = run_once(benchmark, lambda: simulator.simulate(bits))
    assert trace.n_cycles == N_PATTERNS - 1


def test_engines_agree_at_benchmark_scale():
    record = run_comparison(n_patterns=1025, repeats=1)
    assert record["total_toggles"] > 0


# ----------------------------------------------------------------------
def main():
    print(
        f"simulation kernel benchmark: {MODULE_KIND}/{MODULE_WIDTH}, "
        f"{N_PATTERNS - 1} transitions, glitch-aware, best of {REPEATS}"
    )
    record = run_comparison()
    print(f"  bool     engine: {record['bool_seconds'] * 1e3:8.1f} ms")
    print(f"  compiled engine: {record['compiled_seconds'] * 1e3:8.1f} ms")
    print(f"  speedup:         "
          f"{record['compiled_vs_bool_speedup']:8.2f}x bool->compiled "
          f"(parity verified)")
    measure_observability(record)
    print(f"  tracing:       {record['tracing_spans']:8d} spans/run, "
          f"disabled overhead "
          f"{record['tracing_disabled_overhead'] * 100:.3f}% (< 2% budget)")


if __name__ == "__main__":
    main()
