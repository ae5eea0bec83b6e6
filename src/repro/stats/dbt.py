"""Landman dual-bit-type (DBT) data model (Sections 6.1 and 6.3).

A two's-complement data word splits into three bit regions (paper Fig. 5):

1. LSBs up to breakpoint ``BP0``: uncorrelated, signal/transition
   probability 1/2 regardless of word statistics;
2. MSBs from breakpoint ``BP1`` up: sign bits, which all toggle together
   with probability ``t_sign`` determined by the word-level statistics;
3. an intermediate region whose activity is linearly interpolated.

Breakpoint formulas: the random region is controlled by the *first
difference* of the stream — a bit behaves randomly iff the typical
step ``σ_d = σ sqrt(2(1-ρ))`` spans it — so ``BP0 = log2(σ_d) - 1``;
the sign region starts where the signal magnitude runs out:
``BP1 = log2(|μ| + 3σ)``.  These are the empirical Gaussian-process
equations of Landman/Rabaey [2,3] restated in difference form (as in
Ramprasad et al. [10], which the paper cites for the improved breakpoints).

``t_sign`` is the exact Gaussian sign-change probability: for a stationary
process with lag-1 correlation ρ and standardized mean h = μ/σ,
``t_sign = P(sign(x_t) != sign(x_{t+1}))``, computed by Gauss-Legendre
quadrature of the bivariate normal orthant; for h = 0 it reduces to the
classic ``arccos(ρ)/π``.

Section 6.3 then *reduces* the three regions to two: shifting both
breakpoints together by half the intermediate width preserves the average
activity, leaving ``n_rand`` random bits and ``n_sign`` sign bits with
``n_rand + n_sign = m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .wordstats import WordStats, word_stats

#: Gauss-Legendre order for the bivariate-normal orthant integral.
_QUADRATURE_ORDER = 200

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF ``Φ(z) = (1 + erf(z/√2)) / 2`` of a 1-D array.

    numpy has no erf ufunc, so ``math.erf`` is mapped over the array's
    buffer: about twice as fast as ``np.vectorize`` at the quadrature's
    size.  Agrees with the exact CDF to ~1e-16 absolute over the whole
    real line, tails included.
    """
    t = memoryview(z * _SQRT1_2)
    return 0.5 * (1.0 + np.fromiter(map(math.erf, t), np.float64, len(t)))


@lru_cache(maxsize=4)
def _gauss_legendre(order: int):
    """Quadrature nodes/weights, computed once per order.

    ``leggauss`` solves an eigenvalue problem — rebuilding the 200-point
    rule on every call made DBT sweeps quadratic in the number of
    evaluations for no reason.
    """
    return np.polynomial.legendre.leggauss(order)


def gaussian_sign_activity(rho: float, mean_over_sigma: float = 0.0) -> float:
    """Probability that a stationary Gaussian process changes sign per step.

    Args:
        rho: Lag-1 autocorrelation in [-1, 1].
        mean_over_sigma: Standardized mean ``h = μ/σ``.

    Returns:
        ``P(sign(x_t) != sign(x_{t+1}))``; ``arccos(ρ)/π`` when ``h = 0``.
    """
    rho = min(max(float(rho), -1.0), 1.0)
    h = float(mean_over_sigma)
    if abs(h) < 1e-12:
        return float(np.arccos(rho) / np.pi)
    if rho >= 1.0 - 1e-12:
        return 0.0
    # P(X>0, Y<=0) + P(X<=0, Y>0) with X,Y ~ N(h,1), corr rho:
    # integrate P(Y<=0 | X=x) phi(x-h) over x>0 and the mirrored term.
    nodes, weights = _gauss_legendre(_QUADRATURE_ORDER)
    # Map [-1,1] -> [0, 8+|h|] (effectively infinity for a unit normal).
    upper = 8.0 + abs(h)
    x = 0.5 * (nodes + 1.0) * upper
    w = 0.5 * upper * weights
    n = len(x)
    # Both terms at once: d is x - h for term 1, then -x - h for term 2
    # (X <= 0, Y > 0 after substituting x -> -x, so x > 0 again).
    d = np.concatenate((x, -x)) - h
    density = np.exp(-0.5 * d * d) / _SQRT_2PI
    # Term 1: P(Y <= 0 | X = x) = Phi(-(h + rho (x - h)) / sq).
    # Term 2: P(Y > 0 | X = -x) = 1 - Phi(-(h + rho (-x - h)) / sq),
    # which is Phi((h + rho (-x - h)) / sq): one CDF call for both.
    z = (h + rho * d) / math.sqrt(1.0 - rho * rho)
    np.negative(z[:n], out=z[:n])
    term1, term2 = ((density * _normal_cdf(z)).reshape(2, n) * w).sum(axis=1)
    return min(max(float(term1) + float(term2), 0.0), 1.0)


@dataclass(frozen=True)
class DbtModel:
    """Dual-bit-type model of one data word.

    Attributes:
        width: Word width ``m``.
        bp0: Upper edge of the uncorrelated LSB region (real-valued).
        bp1: Lower edge of the sign region (real-valued).
        t_sign: Transition activity of the sign region.
        n_rand: Reduced random-region size (Section 6.3), integer.
        n_sign: Reduced sign-region size; ``n_rand + n_sign == width``.
    """

    width: int
    bp0: float
    bp1: float
    t_sign: float
    n_rand: int
    n_sign: int

    @classmethod
    def from_wordstats(cls, stats: WordStats, width: int) -> "DbtModel":
        """Build the model from word-level statistics (the analytic path)."""
        if width < 1:
            raise ValueError("width must be >= 1")
        sigma = stats.sigma
        if sigma <= 0.0:
            # Constant stream: no random bits, frozen sign bits.
            return cls(width=width, bp0=0.0, bp1=0.0, t_sign=0.0,
                       n_rand=0, n_sign=width)
        sigma_d = max(stats.difference_sigma, 1e-12)
        bp0 = np.log2(sigma_d) - 1.0
        bp1 = np.log2(abs(stats.mean) + 3.0 * sigma)
        # Scalar min/max, not np.clip: same values, and np.clip on a
        # scalar costs microseconds on the analytic-estimate path.
        bp0 = float(min(max(bp0, 0.0), width))
        bp1 = float(min(max(bp1, bp0), width))
        t_sign = gaussian_sign_activity(stats.rho, stats.mean / sigma)
        n_rand = min(max(round(bp0 + 0.5 * (bp1 - bp0)), 0), width)
        n_sign = width - n_rand
        return cls(width=width, bp0=bp0, bp1=bp1, t_sign=t_sign,
                   n_rand=n_rand, n_sign=n_sign)

    @classmethod
    def from_words(cls, words: np.ndarray, width: int) -> "DbtModel":
        """Build the model by measuring word statistics from a sample."""
        return cls.from_wordstats(word_stats(words), width)

    @classmethod
    def from_bit_activities(cls, activities: np.ndarray) -> "DbtModel":
        """Fit the reduced two-region model to *measured* bit activities.

        The Gaussian breakpoint equations assume AR-Gaussian word
        statistics; for signals that are not (video with hard edges,
        heavy-tailed sources), the two-region structure still holds and can
        be fitted directly: choose the split ``n_rand`` and sign activity
        ``t_sign`` minimizing the squared error of the step profile
        ``[0.5] * n_rand + [t_sign] * n_sign`` against the measured per-bit
        transition probabilities.

        Args:
            activities: Per-bit transition probabilities (LSB first).
        """
        t = np.asarray(activities, dtype=np.float64)
        width = len(t)
        if width < 1:
            raise ValueError("need at least one bit activity")
        best = None
        for n_rand in range(width + 1):
            t_sign = float(t[n_rand:].mean()) if n_rand < width else 0.0
            error = float(((t[:n_rand] - 0.5) ** 2).sum())
            error += float(((t[n_rand:] - t_sign) ** 2).sum())
            # `<=` prefers the largest random region on ties (the binomial
            # description is the better-behaved one for ambiguous bits).
            if best is None or error <= best[0]:
                best = (error, n_rand, t_sign)
        _, n_rand, t_sign = best
        return cls(
            width=width,
            bp0=float(n_rand),
            bp1=float(n_rand),
            t_sign=float(np.clip(t_sign, 0.0, 1.0)),
            n_rand=n_rand,
            n_sign=width - n_rand,
        )

    # ------------------------------------------------------------------
    def bit_activities(self) -> np.ndarray:
        """Predicted per-bit transition activity (3-region form, Fig. 5).

        Bits below ``bp0`` toggle with probability 1/2, bits above ``bp1``
        with ``t_sign``, and the intermediate region interpolates linearly —
        Landman's original approximation, used here for validation against
        measured bit activities.
        """
        t = np.empty(self.width, dtype=np.float64)
        for i in range(self.width):
            position = i + 0.5
            if position <= self.bp0:
                t[i] = 0.5
            elif position >= self.bp1:
                t[i] = self.t_sign
            else:
                frac = (position - self.bp0) / max(self.bp1 - self.bp0, 1e-12)
                t[i] = 0.5 + frac * (self.t_sign - 0.5)
        return t

    def average_hd(self) -> float:
        """Average Hamming distance of the word (Eq. 11, reduced form).

        With the Section-6.3 region reduction the intermediate term is
        already folded into ``n_rand``/``n_sign``:
        ``Hd_avg = 0.5 n_rand + t_sign n_sign``.
        """
        return 0.5 * self.n_rand + self.t_sign * self.n_sign

    def average_hd_three_region(self) -> float:
        """Average Hamming distance from the unreduced 3-region model.

        ``Hd_avg = Σ_i t_i`` over the per-bit activities; agrees with
        :meth:`average_hd` up to the rounding of the region reduction.
        """
        return float(self.bit_activities().sum())
