"""The percentile rule: median plus the deepest tail with ten beyond it."""

import numpy as np
import pytest

from benchmarks.e2e.stats import median_rate, summarize, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected > 50.0:
        assert n * (100.0 - expected) / 100.0 >= 10 - 1e-9


def test_summarize_reports_median_tail_and_count():
    samples = np.arange(1, 101, dtype=float)
    summary = summarize(samples, tail_percentile(len(samples)))
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["tail_q"] == 90.0
    assert summary["tail"] == pytest.approx(np.percentile(samples, 90))


def test_summarize_rejects_empty_input():
    with pytest.raises(ValueError):
        summarize([], 90.0)
    with pytest.raises(ValueError):
        summarize([1.0] * 99, 90.0, window=100)


def test_windowed_summary_ignores_one_slow_window():
    rng = np.random.default_rng(0)
    steady = rng.uniform(1.0, 2.0, size=500)
    slowed = steady.copy()
    slowed[100:200] *= 3.0  # the host ran slowly for one window
    plain = summarize(steady, 90.0, window=100)
    assert plain["windows"] == 5 and plain["n"] == 500
    windowed = summarize(slowed, 90.0, window=100)
    assert windowed["p50"] == pytest.approx(plain["p50"], rel=0.05)
    assert windowed["tail"] == pytest.approx(plain["tail"], rel=0.05)
    # Without windows the slow stretch drags the tail up.
    assert summarize(slowed, 90.0)["tail"] > 1.5 * plain["tail"]
    # A remainder shorter than a window is dropped.
    assert summarize(np.append(steady, [100.0] * 50), 90.0,
                     window=100)["windows"] == 5


def test_median_rate_ignores_a_slow_stretch():
    # 10 events per second for 5 s, except one second with only 2.
    times = [k + i / 10 for k in (0, 1, 3, 4) for i in range(10)]
    times += [2.1, 2.6]
    assert median_rate(times, elapsed=5.0) == 10.0
    assert len(times) / 5.0 < 10.0
    # A partial last window is left out.
    assert median_rate(times + [5.1, 5.2], elapsed=5.5) == 10.0
    with pytest.raises(ValueError):
        median_rate([0.1], elapsed=0.5)
