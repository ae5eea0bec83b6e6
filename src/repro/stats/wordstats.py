"""Word-level statistics: mean, variance, lag-1 autocorrelation.

These three numbers (μ, σ², ρ) are the entire word-level interface of the
Landman dual-bit-type data model (Section 6.1 of the paper): every bit-level
quantity — breakpoints, sign activity, Hamming-distance distribution — is
derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WordStats:
    """Word-level statistics of a data stream.

    Attributes:
        mean: Sample mean μ.
        variance: Sample variance σ².
        rho: Lag-1 autocorrelation coefficient ρ (of the mean-removed
            process); 0 for a constant stream.
    """

    mean: float
    variance: float
    rho: float

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def difference_sigma(self) -> float:
        """Standard deviation of the first difference ``x_t - x_{t-1}``.

        For a stationary process: ``σ_d = σ sqrt(2 (1 - ρ))``.  The LSBs of
        a stream behave randomly exactly up to the magnitude of this
        difference process, which is why it controls the uncorrelated-region
        breakpoint (see :mod:`repro.stats.dbt`).
        """
        return self.sigma * math.sqrt(max(2.0 * (1.0 - self.rho), 0.0))

    def scaled(self, factor: float) -> "WordStats":
        """Statistics of ``factor * x`` (constant multiplication)."""
        return WordStats(
            mean=self.mean * factor,
            variance=self.variance * factor * factor,
            rho=self.rho,
        )


def word_stats(words: np.ndarray) -> WordStats:
    """Estimate :class:`WordStats` from a sample stream.

    Args:
        words: 1-D integer or float array of at least 2 samples.
    """
    x = np.asarray(words, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D stream of at least 2 samples")
    mean = float(x.mean())
    centered = x - mean
    variance = float(centered @ centered) / x.size
    if variance <= 0.0:
        return WordStats(mean=mean, variance=0.0, rho=0.0)
    covariance = float(centered[:-1] @ centered[1:]) / (x.size - 1)
    rho = covariance / variance
    rho = float(np.clip(rho, -1.0, 1.0))
    return WordStats(mean=mean, variance=variance, rho=rho)
