"""Timing summaries: median plus the deepest tail the samples support."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

#: Candidate tail percentiles, shallowest first.
PERCENTILE_LADDER = (90.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it the maximum of a handful of outliers.
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> float:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond.

    Falls back to the median when even p90 has too few samples past it.
    Workloads call this with a fixed count (the samples they guarantee, or
    the size of a summary window), never with the count a run happened to
    reach, so a faster program never switches a metric to a deeper (and
    larger) percentile.
    """
    chosen = 50.0
    for q in PERCENTILE_LADDER:
        if n_samples * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            chosen = q
    return chosen


def median_rate(completions: Sequence[float], elapsed: float,
                window: float = 1.0) -> float:
    """Median events per second over the whole ``window``s of a phase.

    ``completions`` are event times in seconds from the phase start.  A
    median over windows, unlike events / elapsed, ignores a few seconds
    in which the host ran the process slowly.
    """
    n_windows = int(elapsed // window)
    if n_windows < 1:
        raise ValueError("phase shorter than one window")
    counts = np.bincount(
        (np.asarray(completions) // window).astype(np.int64),
        minlength=n_windows,
    )[:n_windows]
    return float(np.median(counts)) / window


def summarize(samples: Sequence[float], tail_q: float,
              window: Optional[int] = None) -> Dict[str, float]:
    """``{n, windows, p50, tail, tail_q}`` of ``samples`` (input unit).

    With ``window``, the samples (in time order) are cut into consecutive
    windows of that many, any remainder dropped, and each statistic is the
    median over windows of that window's value: a few seconds in which the
    host ran the process slowly then move one window, not the result.
    """
    values = np.asarray(samples, dtype=np.float64)
    window = window or values.size
    n_windows = values.size // window if window else 0
    if n_windows < 1:
        raise ValueError("fewer samples than one window")
    chunks = values[:n_windows * window].reshape(n_windows, window)
    return {
        "n": int(values.size),
        "windows": n_windows,
        "p50": float(np.median(np.percentile(chunks, 50, axis=1))),
        "tail": float(np.median(np.percentile(chunks, tail_q, axis=1))),
        "tail_q": float(tail_q),
    }
