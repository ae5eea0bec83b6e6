"""Model characterization (Section 4.1).

A module prototype is stimulated with random patterns, the reference power
simulator provides per-transition charges, and the model coefficients are
per-class averages (Eq. 4).  Characterization proceeds in batches and is
"finished after the coefficient values have converged": after each batch the
cumulative coefficients are refitted and the maximum relative change over
well-populated classes is compared against a tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..circuit.power import PowerSimulator
from ..modules.library import DatapathModule
from ..obs.events import EVENTS
from ..obs.tracing import span
from .accumulator import ClassAccumulator
from .enhanced import EnhancedHdModel
from .events import classify_transitions
from .hd_model import HdPowerModel

#: Semantic version tag of the characterization algorithm + stimulus
#: generators.  Bump whenever a change alters characterization results for
#: an unchanged configuration — the persistent model cache
#: (:mod:`repro.runtime.cache`) keys on it, so bumping invalidates every
#: stale cache entry at once.
CHARACTERIZATION_VERSION = "4"


@dataclass
class CharacterizationResult:
    """Outcome of a characterization run.

    Attributes:
        model: The fitted basic Hd model.
        enhanced: The fitted enhanced model (if requested).
        n_patterns: Characterization patterns consumed.
        converged: Whether the convergence criterion was met before the
            pattern budget ran out.
        history: Max relative coefficient change after each batch.
        average_charge: Mean reference cycle charge of the run.
        convergence_reason: Why the loop stopped — ``"converged"``,
            ``"budget_exhausted"`` (populated classes existed but never
            settled below the tolerance) or ``"no_populated_classes"``
            (no class ever reached ``min_class_count`` samples, e.g. a
            module too wide for the pattern budget; the convergence check
            then never had anything to compare).
        accumulator: The incremental class statistics the models were
            fitted from; mergeable across runs and serializable for the
            persistent cache.
    """

    model: HdPowerModel
    enhanced: Optional[EnhancedHdModel]
    n_patterns: int
    converged: bool
    history: List[float] = field(default_factory=list)
    average_charge: float = 0.0
    convergence_reason: str = "converged"
    accumulator: Optional[ClassAccumulator] = field(default=None, repr=False)


def random_input_bits(
    n_patterns: int, width: int, seed: int = 0
) -> np.ndarray:
    """Uniform random module input vectors (the characterization stream)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, width), dtype=np.int8).astype(bool)


def _toggle_masks(h: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean masks with exactly ``h[i]`` set bits, placed by ``keys[i]``.

    Row ``i`` sets the positions of its ``h[i]`` smallest keys.  With
    i.i.d. continuous keys the ranks form a uniform random permutation,
    so given ``h`` the set positions are a uniform ``h``-subset.  One
    sort plus a compare against each row's ``h``-th smallest key does
    it; rows with tied keys (probability ~``m**2 / 2**54`` per row for
    53-bit doubles) would set too many bits, so they are caught by the
    total count and the batch is re-ranked exactly (ties broken by
    position).
    """
    kth = np.sort(keys, axis=1)[np.arange(len(h)), h - 1]
    masks = keys <= kth[:, None]
    if np.count_nonzero(masks) != int(h.sum()):
        ranks = np.argsort(np.argsort(keys, axis=1, kind="stable"), axis=1)
        masks = ranks < h[:, None]
    return masks


def _random_toggle_masks(
    rng: np.random.Generator, n: int, width: int
) -> np.ndarray:
    """``n`` masks, each toggling ``h ~ U{1..width}`` uniform positions."""
    h = rng.integers(1, width + 1, size=n)
    return _toggle_masks(h, rng.random((n, width)))


def uniform_hd_input_bits(
    n_patterns: int, width: int, seed: int = 0
) -> np.ndarray:
    """Hd-stratified random walk: every event class converges equally fast.

    Uniform random patterns concentrate the Hamming distance binomially
    around ``m/2``, so for wide modules the low- and high-Hd classes are
    never observed and their coefficients would be extrapolations.  This
    stream starts from a uniform random vector and XORs, per step, a mask of
    exactly ``h`` uniformly-chosen bit positions with ``h`` drawn uniformly
    from ``1..m``.  The marginal stays uniform and, conditioned on
    ``Hd = h``, the toggled positions are uniform — i.e. the same
    class-conditional distribution as the plain random stream — so the
    fitted ``p_i`` are unbiased while every class receives ``~n/m`` samples
    (importance sampling over event classes).

    The whole batch is drawn at once: every step's ``h`` in one call, the
    masks from per-row random keys (:func:`_toggle_masks`), and the walk
    as an XOR prefix scan down the rows.
    """
    rng = np.random.default_rng(seed)
    n = max(n_patterns, 1)
    bits = np.empty((n, width), dtype=bool)
    bits[0] = rng.integers(0, 2, size=width).astype(bool)
    bits[1:] = _random_toggle_masks(rng, n - 1, width)
    np.bitwise_xor.accumulate(bits, axis=0, out=bits)
    return bits[:n_patterns]


def corner_input_bits(
    n_patterns: int, width: int, seed: int = 0
) -> np.ndarray:
    """Structured vectors that exercise extreme stable-zero subclasses.

    Uniform random patterns almost never produce transitions where *all*
    non-switching bits are 0 (or all are 1) — exactly the subclasses the
    enhanced model's Figure-2 curves need.  This stream emits pairs
    ``(u, u ^ mask)`` whose support is a random subset ``S`` of ``h``
    positions (``h`` uniform on ``1..m``, ``S`` uniform given ``h``), with
    random bits of ``u`` on ``S`` while the bits outside ``S`` are
    all-zero, all-one or random, cycling through the three fill styles
    pair by pair.
    """
    rng = np.random.default_rng(seed)
    # Always generate whole (u, v) pairs: with an odd ``n_patterns`` a
    # half-open pair would otherwise leave a spurious vector (and a fake
    # high-Hd seam transition) in the stream.  Rounding up and truncating
    # keeps the requested length while the dangling row is a legitimate
    # pair head; every draw depends only on the pair count, so an odd
    # stream is a strict prefix of the next even one.
    n_pairs = (max(n_patterns, 2) + 1) // 2
    support = _random_toggle_masks(rng, n_pairs, width)
    fill = np.zeros((n_pairs, width), dtype=bool)
    fill[1::3] = True
    fill[2::3] = rng.integers(0, 2, size=fill[2::3].shape, dtype=bool)
    u = np.where(
        support, rng.integers(0, 2, size=(n_pairs, width), dtype=bool), fill
    )
    bits = np.empty((2 * n_pairs, width), dtype=bool)
    bits[0::2] = u
    bits[1::2] = u ^ support
    return bits[:n_patterns]


def mixed_input_bits(
    n_patterns: int, width: int, seed: int = 0, corner_fraction: float = 0.5
) -> np.ndarray:
    """Hd-stratified patterns interleaved with corner pairs (enhanced stream).

    The seam transitions between blocks are ordinary transitions and simply
    land in their own event classes, so interleaving loses nothing.
    """
    n_corner = int(n_patterns * corner_fraction)
    blocks = [
        uniform_hd_input_bits(n_patterns - n_corner, width, seed),
        corner_input_bits(n_corner, width, seed + 1),
    ]
    return np.vstack(blocks)


def characterize_module(
    module: DatapathModule,
    n_patterns: int = 4000,
    seed: int = 0,
    enhanced: bool = False,
    cluster_size: int = 1,
    batch_size: int = 1000,
    tolerance: float = 0.02,
    min_class_count: int = 20,
    glitch_aware: bool = True,
    glitch_weight: float = 1.0,
    stimulus: str = "uniform_hd",
    max_patterns: Optional[int] = None,
    engine: Optional[str] = None,
) -> CharacterizationResult:
    """Characterize one module prototype with random patterns.

    Args:
        module: The module to characterize.
        n_patterns: Initial pattern budget; characterization may extend up
            to ``max_patterns`` if the coefficients have not converged.
        seed: RNG seed for the characterization stream.
        enhanced: Also fit the enhanced (stable-zeros) model.
        cluster_size: Zero-count clustering for the enhanced model.
        batch_size: Patterns per convergence-check batch.
        tolerance: Convergence threshold on the max relative coefficient
            change over classes with at least ``min_class_count`` samples.
        min_class_count: Classes with fewer samples are ignored by the
            convergence check (their coefficients are interpolated anyway).
        glitch_aware: Use the unit-delay (glitchy) reference simulator.
        glitch_weight: Charge weight of glitch toggles (see
            :class:`~repro.circuit.power.PowerSimulator`).
        stimulus: ``"uniform_hd"`` (default: Hd-stratified random walk so
            every event class converges — unbiased per class, see
            :func:`uniform_hd_input_bits`), ``"random"`` (the paper's plain
            random stream), ``"mixed"`` (uniform_hd + corner pairs,
            recommended for the enhanced model) or ``"corner"``.
        max_patterns: Hard budget; defaults to ``4 * n_patterns``.
        engine: Simulation kernel (``"auto"``, ``"bool"`` or
            ``"compiled"``, see
            :class:`~repro.circuit.power.PowerSimulator`).  Engines are
            bit-identical by contract, so this never changes the fitted
            coefficients — only how fast the reference charges arrive.

    Returns:
        A :class:`CharacterizationResult`.
    """
    if engine is None:
        engine = "auto"
    if max_patterns is None:
        max_patterns = 4 * n_patterns
    generators = {
        "random": random_input_bits,
        "uniform_hd": uniform_hd_input_bits,
        "mixed": mixed_input_bits,
        "corner": corner_input_bits,
    }
    if stimulus not in generators:
        raise ValueError(f"unknown stimulus {stimulus!r}; use {sorted(generators)}")
    make_bits = generators[stimulus]
    width = module.input_bits
    simulator = PowerSimulator(
        module.compiled, glitch_aware=glitch_aware,
        glitch_weight=glitch_weight, engine=engine,
    )
    rng = np.random.default_rng(seed)

    # Incremental statistics: each batch folds into per-class running
    # sums, so a convergence check is O(m) and memory stays O(m²)
    # regardless of how many patterns the run consumes (the old loop
    # re-concatenated and refitted the full history after every batch).
    accumulator = ClassAccumulator(width)
    previous: Optional[np.ndarray] = None
    history: List[float] = []
    converged = False
    consumed = 0
    last_vector: Optional[np.ndarray] = None

    with span(
        "characterize", module=module.netlist.name, width=width,
        stimulus=stimulus, enhanced=enhanced,
    ):
        while consumed < max_patterns:
            batch = min(batch_size, max_patterns - consumed)
            with span("characterize.batch", rows=batch):
                bits = make_bits(
                    batch, width, seed=int(rng.integers(0, 2**31))
                )
                if last_vector is not None:
                    # Stitch batches so no transition is lost at the seam.
                    bits = np.vstack([last_vector[None, :], bits])
                last_vector = bits[-1]
                consumed += batch
                trace = simulator.simulate(bits)
                events = classify_transitions(bits)
                accumulator.update(
                    events.hd, events.stable_zeros, trace.charge
                )

            counts = accumulator.hd_counts
            current = accumulator.hd_means()
            if previous is not None:
                # Observed means equal the refit coefficients exactly, and
                # the check only ever looks at well-populated classes, so
                # the interpolated entries a full fit would add are
                # irrelevant.
                mask = counts >= min_class_count
                mask[0] = False
                if mask.any():
                    prev = previous[mask]
                    cur = current[mask]
                    denom = np.where(np.abs(prev) > 0, np.abs(prev), 1.0)
                    change = float(np.max(np.abs(cur - prev) / denom))
                else:
                    change = float("inf")
                history.append(change)
                if consumed >= n_patterns and change < tolerance:
                    converged = True
                    break
            previous = current
    EVENTS.characterize_runs.inc()
    EVENTS.characterize_patterns.inc(consumed)

    if converged:
        reason = "converged"
    else:
        populated = accumulator.hd_counts >= min_class_count
        populated[0] = False
        reason = "budget_exhausted" if populated.any() else "no_populated_classes"
        if reason == "no_populated_classes":
            warnings.warn(
                f"characterization of {module.netlist.name} consumed "
                f"{consumed} patterns without any Hd class reaching "
                f"min_class_count={min_class_count}; the convergence check "
                f"never had populated classes to compare (module width "
                f"{width} is too large for this pattern budget — raise "
                f"max_patterns or lower min_class_count)",
                stacklevel=2,
            )

    model = HdPowerModel.from_accumulator(
        accumulator, name=module.netlist.name
    )
    enhanced_model = None
    if enhanced:
        enhanced_model = EnhancedHdModel.from_accumulator(
            accumulator, cluster_size=cluster_size, name=module.netlist.name
        )
    return CharacterizationResult(
        model=model,
        enhanced=enhanced_model,
        n_patterns=consumed,
        converged=converged,
        history=history,
        average_charge=accumulator.average_charge,
        convergence_reason=reason,
        accumulator=accumulator,
    )
