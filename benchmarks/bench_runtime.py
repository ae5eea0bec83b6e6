"""Runtime layer: incremental convergence, parallel fan-out, cache reuse.

The tentpole claims of the runtime layer, measured:

* the incremental accumulator makes each convergence check O(m) instead of
  refitting the whole accumulated history (O(total patterns));
* independent module characterizations fan out over worker processes;
* a second run of the same job set is served from the persistent cache
  with zero simulator cycles.
"""

import numpy as np

from .conftest import run_once
from repro.core import ClassAccumulator, HdPowerModel
from repro.eval import ExperimentConfig, Harness
from repro.runtime import CharacterizationJob, ModelCache, characterize_jobs

JOBS = [
    CharacterizationJob("ripple_adder", 4),
    CharacterizationJob("ripple_adder", 8),
    CharacterizationJob("csa_multiplier", 4),
    CharacterizationJob("csa_multiplier", 6),
]


def test_incremental_convergence_checks(benchmark):
    """Per-batch accumulator update + O(m) refit, at fixed stream length."""
    width = 16
    rng = np.random.default_rng(0)
    batches = [
        (
            rng.integers(0, width + 1, size=1000),
            np.zeros(1000, dtype=np.int64),
            rng.random(1000) * 40,
        )
        for _ in range(20)
    ]

    def run():
        acc = ClassAccumulator(width)
        for hd, zeros, charge in batches:
            acc.update(hd, zeros, charge)
            acc.hd_means()  # the convergence-check ingredient
        return HdPowerModel.from_accumulator(acc)

    model = benchmark(run)
    assert model.counts.sum() == 20_000


def test_parallel_characterization(benchmark, bench_config, tmp_path):
    """Cold fan-out of independent jobs over 2 workers, cache filling."""
    config = ExperimentConfig(
        n_characterization=min(bench_config.n_characterization, 2000),
        seed=bench_config.seed,
    )
    report = run_once(
        benchmark,
        lambda: characterize_jobs(
            JOBS, config=config, jobs=2, cache=ModelCache(tmp_path)
        ),
    )
    print()
    print("cold:", report.summary())
    assert report.cache_misses == len(JOBS)
    assert all(r.model.coefficients[-1] > 0 for r in report.results)

    warm = characterize_jobs(
        JOBS, config=config, jobs=2, cache=ModelCache(tmp_path)
    )
    print("warm:", warm.summary())
    assert warm.cache_hits == len(JOBS) and warm.cache_misses == 0
    assert warm.hit_rate == 1.0


def test_harness_disk_cache_speedup(benchmark, tmp_path):
    """Full evaluate() pipeline: second harness does zero simulator work."""
    config = ExperimentConfig(n_characterization=1000, n_eval=1000)
    cold = Harness(config, cache=ModelCache(tmp_path))
    cold_row = cold.evaluate("csa_multiplier", 4, "III")
    assert cold.counters["simulated_patterns"] > 0

    def warm_run():
        harness = Harness(config, cache=ModelCache(tmp_path))
        return harness, harness.evaluate("csa_multiplier", 4, "III")

    harness, warm_row = run_once(benchmark, warm_run)
    print()
    print(f"cold counters: {cold.counters}")
    print(f"warm counters: {harness.counters}")
    assert harness.counters["simulated_patterns"] == 0
    assert warm_row == cold_row
