"""Micro-batcher: parity with direct calls, next-tick flushes, fast paths."""

import asyncio

import numpy as np
import pytest

from repro.serve import MicroBatcher
from repro.serve.batching import streams_to_bits
from repro.signals.encoding import signed_range
from repro.stats.wordstats import WordStats


def _matrices(served, n, rows=16, seed=3):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 2, size=(rows, served.module.input_bits))
        for _ in range(n)
    ]


def test_one_tick_one_flush_parity(served_adder4):
    """Requests queued in one tick share one flush and match direct calls
    to 1e-9."""
    matrices = _matrices(served_adder4, 8)
    batcher = MicroBatcher()
    before = batcher.metrics.engine_requests_total.value()

    async def go():
        return await asyncio.gather(*(
            batcher.estimate_bits(served_adder4, m) for m in matrices
        ))

    results = asyncio.run(go())
    assert batcher.metrics.batch_flush_total.value(reason="tick") == 1
    assert batcher.metrics.batch_size.count() == 1
    assert batcher.metrics.engine_requests_total.value() - before == 8
    for matrix, result in zip(matrices, results):
        direct = served_adder4.estimator.estimate_from_bits(matrix)
        assert result.average_charge == pytest.approx(
            direct.average_charge, abs=1e-9
        )
        np.testing.assert_allclose(
            result.cycle_charge, direct.cycle_charge
        )


def test_lone_request_flushes_without_timer(served_adder4):
    """A lone request resolves on the next tick: no timer is armed."""
    matrix = _matrices(served_adder4, 1)[0]
    batcher = MicroBatcher()
    # engine_requests_total aliases the process-global shared counter
    # (repro.obs EVENTS), so assert on the delta, not the absolute value.
    before = batcher.metrics.engine_requests_total.value()

    async def go():
        loop = asyncio.get_running_loop()
        armed = []
        call_later = loop.call_later
        loop.call_later = lambda *args: armed.append(args) or call_later(
            *args
        )
        result = await batcher.estimate_bits(served_adder4, matrix)
        return result, armed

    result, armed = asyncio.run(go())
    assert armed == []
    direct = served_adder4.estimator.estimate_from_bits(matrix)
    assert result.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )
    assert batcher.metrics.batch_flush_total.value(reason="tick") == 1
    assert batcher.metrics.batch_flush_total.value(reason="timeout") == 0
    assert batcher.metrics.batch_size.count() == 1
    assert batcher.metrics.engine_requests_total.value() - before == 1


def test_drain_flush(served_adder4):
    """drain() flushes pending work immediately with reason=drain."""
    matrices = _matrices(served_adder4, 2)
    batcher = MicroBatcher()

    async def go():
        pending = [
            asyncio.ensure_future(batcher.estimate_bits(served_adder4, m))
            for m in matrices
        ]
        await asyncio.sleep(0)  # let the requests enqueue
        assert batcher.pending_requests == 2
        batcher.drain()
        return await asyncio.gather(*pending)

    results = asyncio.run(go())
    assert len(results) == 2
    assert batcher.metrics.batch_flush_total.value(reason="drain") == 1
    assert batcher.metrics.batch_flush_total.value(reason="tick") == 0
    assert batcher.pending_requests == 0


def test_batch_error_propagates_to_all_waiters(served_adder4):
    """A bad matrix in the batch fails every request in that flush."""
    good = _matrices(served_adder4, 1)[0]
    bad = np.zeros((4, 3))  # wrong width
    batcher = MicroBatcher()

    async def go():
        return await asyncio.gather(
            batcher.estimate_bits(served_adder4, good),
            batcher.estimate_bits(served_adder4, bad),
            return_exceptions=True,
        )

    results = asyncio.run(go())
    assert all(isinstance(r, ValueError) for r in results)


def test_streams_path_matches_bits_path(served_adder4):
    """The streams route packs words with streams_to_bits, then rides the
    batched bits path."""
    rng = np.random.default_rng(9)
    words = [
        rng.integers(*signed_range(w), endpoint=True, size=12).tolist()
        for _, w in served_adder4.module.operand_specs
    ]
    bits = streams_to_bits(served_adder4.module, words)
    batcher = MicroBatcher()

    async def go():
        return await batcher.estimate_bits(served_adder4, bits)

    result = asyncio.run(go())
    direct = served_adder4.estimator.estimate_from_bits(bits)
    assert result.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


def test_streams_validation(served_adder4):
    with pytest.raises(ValueError, match="operands"):
        streams_to_bits(served_adder4.module, [[1, 2, 3]])
    with pytest.raises(ValueError, match="equal lengths"):
        streams_to_bits(served_adder4.module, [[1, 2, 3], [1, 2]])


def test_distribution_fast_path(served_adder4):
    width = served_adder4.estimator.model.width
    pmf = np.full(width + 1, 1.0 / (width + 1))
    batcher = MicroBatcher()
    result = batcher.estimate_distribution(served_adder4, pmf.tolist())
    direct = served_adder4.estimator.estimate_from_distribution(pmf)
    assert result.average_charge == pytest.approx(direct.average_charge)
    assert result.method == "distribution"


def test_analytic_fast_path(served_adder4):
    stats = [
        {"mean": 1.0, "variance": 20.0, "rho": 0.3},
        {"mean": -2.0, "variance": 15.0},  # rho defaults to 0
    ]
    batcher = MicroBatcher()
    result = batcher.estimate_analytic(served_adder4, stats)
    direct = served_adder4.estimator.estimate_analytic(
        served_adder4.module,
        [
            WordStats(mean=1.0, variance=20.0, rho=0.3),
            WordStats(mean=-2.0, variance=15.0, rho=0.0),
        ],
    )
    assert result.average_charge == pytest.approx(direct.average_charge)


def test_batch_estimator_parity_enhanced():
    """estimate_batch_from_bits parity holds for the enhanced model too."""
    from repro.eval import ExperimentConfig
    from repro.serve import ModelRegistry

    registry = ModelRegistry(
        config=ExperimentConfig(n_characterization=300, seed=5), cache=None
    )
    served = registry.get("ripple_adder", 3, enhanced=True)
    assert served.estimator.enhanced is not None
    matrices = _matrices(served, 5, rows=10)
    batched = served.estimator.estimate_batch_from_bits(matrices)
    for matrix, result in zip(matrices, batched):
        direct = served.estimator.estimate_from_bits(matrix)
        assert result.average_charge == pytest.approx(
            direct.average_charge, abs=1e-9
        )
        np.testing.assert_allclose(result.cycle_charge, direct.cycle_charge)


def test_batch_estimator_rejects_bad_entries(served_adder4):
    est = served_adder4.estimator
    assert est.estimate_batch_from_bits([]) == []
    with pytest.raises(ValueError, match=">= 2 rows"):
        est.estimate_batch_from_bits(
            [np.zeros((1, est.model.width), dtype=bool)]
        )
    with pytest.raises(ValueError, match="model expects"):
        est.estimate_batch_from_bits([np.zeros((4, 2), dtype=bool)])
