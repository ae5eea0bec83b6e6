"""Pure, slow, obviously-correct reference implementations ("oracles").

Every oracle in this module re-derives a quantity the production code
computes through an optimized path — vectorized numpy, bit-packed kernels,
incremental accumulators, closed-form convolutions — using the most naive
formulation available: per-gate Python loops, Pascal's triangle, explicit
per-class averaging.  The oracles share *no code* with the fast paths
beyond the netlist data model and the technology constants that define the
circuit, so an agreement between the two is evidence, not tautology.

Contents:

* :func:`oracle_power_trace` — an independent dense toggle counter and
  charge accounting for netlist simulation (the golden model the
  ``bool``/``compiled`` engines are fuzzed against);
* :func:`oracle_class_counts` / :func:`oracle_class_averages` — the paper's
  Eq. 4 per-class charge averaging, plus the class partition identity
  ``Σ_i |E_i| = n_transitions``;
* :func:`oracle_binomial_pmf` / :func:`oracle_dbt_convolution` /
  :func:`monte_carlo_dbt_hd` — the binomial ⊗ two-point convolution behind
  the DBT Hd distribution (Eq. 12-18), in explicit-convolution and
  Monte-Carlo form;
* :func:`lstsq_orthogonality_residual` /
  :func:`regression_orthogonality_residual` — the least-squares normal
  equations (``Aᵀr = 0``) every Eq. 6-10 width regression must satisfy;
* :func:`enhanced_refinement_residual` — consistency of the enhanced
  model's class refinement: subclass statistics must marginalize back to
  the basic model exactly.

See docs/VERIFICATION.md for how these plug into the differential fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit.netlist import CONST0, CONST1, Netlist
from ..circuit.technology import GATE_TYPES, WIRE_CAP_PER_FANOUT


class VerificationError(AssertionError):
    """An oracle check found a disagreement with the production path."""


# ----------------------------------------------------------------------
# Independent gate semantics
# ----------------------------------------------------------------------
# Deliberately re-stated truth functions over Python ints 0/1, not the
# vectorized numpy lambdas of repro.circuit.technology: if a library
# function were edited to something that disagrees with its documented
# semantics, this table is what catches it.
_ORACLE_GATES = {
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "AND2": lambda a, b: 1 if (a and b) else 0,
    "OR2": lambda a, b: 1 if (a or b) else 0,
    "NAND2": lambda a, b: 0 if (a and b) else 1,
    "NOR2": lambda a, b: 0 if (a or b) else 1,
    "XOR2": lambda a, b: 1 if a != b else 0,
    "XNOR2": lambda a, b: 1 if a == b else 0,
    "AND3": lambda a, b, c: 1 if (a and b and c) else 0,
    "OR3": lambda a, b, c: 1 if (a or b or c) else 0,
    "NAND3": lambda a, b, c: 0 if (a and b and c) else 1,
    "NOR3": lambda a, b, c: 0 if (a or b or c) else 1,
    "XOR3": lambda a, b, c: (a + b + c) % 2,
    "MAJ3": lambda a, b, c: 1 if (a + b + c) >= 2 else 0,
    # Pin order (sel, a, b): a when sel is 0, b when sel is 1.
    "MUX2": lambda s, a, b: b if s else a,
    "AOI21": lambda a, b, c: 0 if ((a and b) or c) else 1,
    "OAI21": lambda a, b, c: 0 if ((a or b) and c) else 1,
}


def oracle_net_caps(netlist: Netlist) -> List[float]:
    """Per-net switched capacitance, summed gate by gate in Python.

    Same technology constants as :class:`~repro.circuit.compiled
    .CompiledNetlist` (they define the circuit), independent summation.
    """
    caps = [0.0] * netlist.n_nets
    for gate in netlist.gates:
        gtype = GATE_TYPES[gate.type_name]
        caps[gate.output] += gtype.output_cap
        for net in gate.inputs:
            caps[net] += gtype.input_cap + WIRE_CAP_PER_FANOUT
    caps[CONST0] = caps[CONST1] = 0.0
    return caps


def _level_ordered_gates(netlist: Netlist):
    levels = netlist.levelize()
    return sorted(netlist.gates, key=lambda gate: levels[gate.output])


def _oracle_settle(netlist: Netlist, ordered_gates, input_bits) -> List[int]:
    """Settled net values under one input vector (single topological pass)."""
    values = [0] * netlist.n_nets
    values[CONST1] = 1
    for net, bit in zip(netlist.inputs, input_bits):
        values[net] = int(bit)
    for gate in ordered_gates:
        fn = _ORACLE_GATES[gate.type_name]
        values[gate.output] = fn(*(values[n] for n in gate.inputs))
    return values


@dataclass(frozen=True)
class OracleTrace:
    """Result of the oracle power simulation of one stream.

    Attributes:
        charge: Per-cycle charge (length ``n_patterns - 1``).
        total_toggles: Per-cycle total toggle counts.
        per_net_toggles: ``[n_nets, n_cycles]`` dense toggle counts.
    """

    charge: np.ndarray
    total_toggles: np.ndarray
    per_net_toggles: np.ndarray


def oracle_power_trace(
    netlist: Netlist,
    input_bits: np.ndarray,
    glitch_aware: bool = True,
    glitch_weight: float = 1.0,
) -> OracleTrace:
    """Dense toggle counting and charge accounting, one transition at a time.

    The reference the vectorized engines are fuzzed against: per-gate
    Python evaluation (no gate grouping, no packing), synchronous
    unit-delay relaxation with the same semantics as
    :func:`repro.circuit.simulate.unit_delay_transition` — every gate at
    step ``t+1`` reads net values at step ``t``; every net value change is
    a counted toggle; input application counts as toggles.  Cost is
    O(gates · steps) Python per transition, so keep streams short.

    Args:
        netlist: Module netlist (the raw structure, not the compiled form).
        input_bits: ``[n_patterns, n_inputs]`` boolean matrix.
        glitch_aware: Unit-delay relaxation when True, settled-value
            (zero-delay) toggle counting when False.
        glitch_weight: Charge weight of glitch toggles (toggles beyond the
            settled-value change).
    """
    input_bits = np.asarray(input_bits, dtype=bool)
    if input_bits.ndim != 2 or input_bits.shape[1] != len(netlist.inputs):
        raise ValueError(
            f"input_bits must be [n, {len(netlist.inputs)}], "
            f"got {input_bits.shape}"
        )
    n_cycles = max(input_bits.shape[0] - 1, 0)
    caps = oracle_net_caps(netlist)
    ordered = _level_ordered_gates(netlist)
    max_steps = 4 * netlist.depth() + 8
    charge = np.zeros(n_cycles, dtype=np.float64)
    totals = np.zeros(n_cycles, dtype=np.int64)
    per_net = np.zeros((netlist.n_nets, n_cycles), dtype=np.int64)
    if n_cycles == 0:
        return OracleTrace(charge, totals, per_net)

    values = _oracle_settle(netlist, ordered, input_bits[0])
    for j in range(n_cycles):
        settled_old = list(values)
        toggles = [0] * netlist.n_nets
        if glitch_aware:
            # Apply the new input vector (counted), then relax.
            for net, bit in zip(netlist.inputs, input_bits[j + 1]):
                bit = int(bit)
                if values[net] != bit:
                    toggles[net] += 1
                values[net] = bit
            for _ in range(max_steps):
                changes = {}
                for gate in netlist.gates:
                    fn = _ORACLE_GATES[gate.type_name]
                    out = fn(*(values[n] for n in gate.inputs))
                    if out != values[gate.output]:
                        changes[gate.output] = out
                if not changes:
                    break
                for net, value in changes.items():
                    toggles[net] += 1
                    values[net] = value
            else:
                raise RuntimeError(
                    f"oracle simulation of {netlist.name} did not settle "
                    f"within {max_steps} steps"
                )
            functional = [
                1 if settled_old[n] != values[n] else 0
                for n in range(netlist.n_nets)
            ]
        else:
            values = _oracle_settle(netlist, ordered, input_bits[j + 1])
            toggles = [
                1 if settled_old[n] != values[n] else 0
                for n in range(netlist.n_nets)
            ]
            functional = toggles
        cycle_charge = 0.0
        for n in range(netlist.n_nets):
            weighted = functional[n] + glitch_weight * (
                toggles[n] - functional[n]
            )
            cycle_charge += caps[n] * weighted
        charge[j] = cycle_charge
        totals[j] = sum(toggles)
        per_net[:, j] = toggles
    return OracleTrace(charge, totals, per_net)


def verify_trace_prefix(
    netlist: Netlist,
    input_bits: np.ndarray,
    trace,
    glitch_aware: bool = True,
    glitch_weight: float = 1.0,
    prefix: int = 16,
    rtol: float = 1e-9,
) -> int:
    """Cross-check the head of an engine trace against the oracle.

    Args:
        netlist: The simulated module's netlist.
        input_bits: The full stream the engine consumed.
        trace: The engine's :class:`~repro.circuit.power.PowerTrace`.
        glitch_aware, glitch_weight: The engine's configuration.
        prefix: Transitions to re-simulate with the oracle.
        rtol: Relative charge tolerance (toggle counts must match exactly).

    Returns:
        The number of transitions verified.

    Raises:
        VerificationError: On any disagreement.
    """
    n = min(prefix, len(trace.charge))
    if n == 0:
        return 0
    oracle = oracle_power_trace(
        netlist, np.asarray(input_bits, dtype=bool)[: n + 1],
        glitch_aware=glitch_aware, glitch_weight=glitch_weight,
    )
    if not np.array_equal(oracle.total_toggles, trace.total_toggles[:n]):
        diff = np.nonzero(oracle.total_toggles != trace.total_toggles[:n])[0]
        j = int(diff[0])
        raise VerificationError(
            f"{netlist.name}: toggle count mismatch at cycle {j}: "
            f"oracle {int(oracle.total_toggles[j])}, "
            f"engine {int(trace.total_toggles[j])}"
        )
    if not np.allclose(oracle.charge, trace.charge[:n], rtol=rtol, atol=0.0):
        err = np.abs(oracle.charge - trace.charge[:n])
        j = int(np.argmax(err))
        raise VerificationError(
            f"{netlist.name}: charge mismatch at cycle {j}: "
            f"oracle {oracle.charge[j]!r}, engine {trace.charge[j]!r}"
        )
    return n


# ----------------------------------------------------------------------
# Eq. 4 — per-class charge averaging and the class partition identity
# ----------------------------------------------------------------------
def oracle_class_counts(hd: Sequence[int], width: int) -> np.ndarray:
    """Per-class transition counts ``|E_i|``, counted one by one.

    The partition identity ``Σ_i |E_i| = n_transitions`` holds by
    construction here; comparing against the vectorized
    ``np.bincount``-based counts is the actual check.
    """
    counts = [0] * (width + 1)
    for value in hd:
        value = int(value)
        if not 0 <= value <= width:
            raise ValueError(f"Hd {value} out of range 0..{width}")
        counts[value] += 1
    return np.asarray(counts, dtype=np.int64)


def oracle_class_averages(
    hd: Sequence[int], charge: Sequence[float], width: int
) -> np.ndarray:
    """Eq. 4 coefficients ``p_i`` as explicit per-class means (NaN unseen)."""
    if len(hd) != len(charge):
        raise ValueError("hd and charge must align")
    sums = [0.0] * (width + 1)
    counts = [0] * (width + 1)
    for value, q in zip(hd, charge):
        sums[int(value)] += float(q)
        counts[int(value)] += 1
    return np.asarray([
        sums[i] / counts[i] if counts[i] else np.nan
        for i in range(width + 1)
    ])


# ----------------------------------------------------------------------
# Eq. 12-18 — DBT Hamming-distance distribution
# ----------------------------------------------------------------------
def oracle_binomial_pmf(n: int) -> np.ndarray:
    """Binomial(n, 1/2) pmf via Pascal's triangle (integer arithmetic)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        row = [1] + [row[k] + row[k + 1] for k in range(len(row) - 1)] + [1]
    total = 2**n
    return np.asarray([c / total for c in row], dtype=np.float64)


def oracle_dbt_convolution(
    n_rand: int, n_sign: int, t_sign: float
) -> np.ndarray:
    """Hd pmf of the reduced two-region word, by explicit convolution.

    The random region contributes Binomial(``n_rand``, 1/2); the sign
    region contributes the two-point pmf {0: ``1 - t_sign``,
    ``n_sign``: ``t_sign``}; the word's Hd is their independent sum, so the
    pmfs convolve.  Written as the O(n²) double loop — the obviously
    correct form of Eq. 18.
    """
    if n_sign < 0:
        raise ValueError("n_sign must be >= 0")
    if not 0.0 <= t_sign <= 1.0:
        raise ValueError("t_sign must be in [0, 1]")
    rand = oracle_binomial_pmf(n_rand)
    sign = [0.0] * (n_sign + 1)
    sign[0] += 1.0 - t_sign
    sign[n_sign] += t_sign
    out = [0.0] * (n_rand + n_sign + 1)
    for i, p_i in enumerate(rand):
        for k, p_k in enumerate(sign):
            out[i + k] += p_i * p_k
    return np.asarray(out, dtype=np.float64)


def monte_carlo_dbt_hd(
    n_rand: int,
    n_sign: int,
    t_sign: float,
    n_samples: int = 200_000,
    seed: int = 0,
) -> np.ndarray:
    """Empirical Hd pmf of the two-region word process, by sampling.

    Each sample draws ``n_rand`` independent fair-coin bit flips plus an
    all-or-nothing sign-region switch with probability ``t_sign`` — the
    generative model behind Eq. 18.  Converges to
    :func:`oracle_dbt_convolution` at the usual ``1/sqrt(n)`` rate.
    """
    rng = np.random.default_rng(seed)
    rand_flips = rng.integers(
        0, 2, size=(n_samples, n_rand)
    ).sum(axis=1) if n_rand else np.zeros(n_samples, dtype=np.int64)
    sign_switch = rng.random(n_samples) < t_sign
    hd = rand_flips + n_sign * sign_switch.astype(np.int64)
    counts = np.bincount(hd, minlength=n_rand + n_sign + 1)
    return counts / n_samples


# ----------------------------------------------------------------------
# Eq. 6-10 — least-squares residual orthogonality
# ----------------------------------------------------------------------
def lstsq_orthogonality_residual(
    design: np.ndarray, targets: np.ndarray, solution: np.ndarray
) -> float:
    """``max |Aᵀ (y - A x)|`` — zero for any least-squares solution.

    Every least-squares solution (including numpy's minimum-norm one for
    rank-deficient systems) satisfies the normal equations
    ``Aᵀ A x = Aᵀ y``, i.e. the residual is orthogonal to the column space
    of the design matrix.  A fit that violates this is not a least-squares
    fit at all — the sharpest machine-checkable property of Eq. 10.
    """
    design = np.asarray(design, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    solution = np.asarray(solution, dtype=np.float64)
    residual = targets - design @ solution
    return float(np.max(np.abs(design.T @ residual), initial=0.0))


def regression_orthogonality_residual(
    kind: str,
    prototypes: Dict[int, "object"],
    regression,
) -> float:
    """Worst normal-equation residual over a fitted width regression.

    Rebuilds each class's design matrix and target vector from the
    prototypes exactly as :func:`repro.core.regression.fit_width_regression`
    defines them, then measures ``max_i max |A_iᵀ r_i|``.  Scale: the
    residual is normalized by ``max(1, |A|_max · |y|_max)`` so the
    tolerance is meaningful across feature magnitudes (``m²`` features
    reach 256 at width 16).
    """
    from ..modules.library import MODULE_KINDS

    entry = MODULE_KINDS[kind]
    worst = 0.0
    for i, row in enumerate(regression.rows):
        if row is None or i == 0:
            continue
        feats = []
        targets = []
        for width, model in sorted(prototypes.items()):
            if model.width >= i:
                feats.append(entry.complexity_features(width))
                targets.append(float(model.coefficients[i]))
        if not feats:
            continue
        design = np.asarray(feats, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        scale = max(
            1.0, float(np.abs(design).max()) * max(1.0, float(np.abs(y).max()))
        )
        worst = max(
            worst, lstsq_orthogonality_residual(design, y, row) / scale
        )
    return worst


# ----------------------------------------------------------------------
# Enhanced-model class refinement consistency
# ----------------------------------------------------------------------
def enhanced_refinement_residual(enhanced) -> float:
    """Max relative inconsistency between subclass and basic statistics.

    The enhanced model refines each Hd class ``E_i`` into subclasses
    ``E_{i,z}``; refinement must be *conservative*:

    * ``Σ_z n_{i,z} = n_i`` (counts partition exactly), and
    * ``Σ_z n_{i,z} · p_{i,z} = n_i · p_i`` (charge mass is preserved, so
      the sample-weighted subclass coefficients marginalize back to the
      basic coefficient).

    Args:
        enhanced: A fitted
            :class:`~repro.core.enhanced.EnhancedHdModel` (any cluster
            size; clustering only merges subclasses, which preserves both
            identities).

    Returns:
        The worst relative residual over observed Hd classes (0.0 when
        perfectly consistent).
    """
    basic = enhanced.fallback
    counts_by_hd: Dict[int, int] = {}
    mass_by_hd: Dict[int, float] = {}
    for (i, _z), n in enhanced.counts.items():
        counts_by_hd[i] = counts_by_hd.get(i, 0) + n
        mass_by_hd[i] = mass_by_hd.get(i, 0.0) + n * enhanced.coefficients[
            (i, _z)
        ]
    worst = 0.0
    for i, n in counts_by_hd.items():
        n_basic = int(basic.counts[i])
        if n != n_basic:
            raise VerificationError(
                f"class E_{i}: subclass counts sum to {n}, basic model "
                f"observed {n_basic}"
            )
        if i == 0:
            continue  # p_0 is pinned to 0 by definition, not by averaging
        expected = n_basic * float(basic.coefficients[i])
        denom = max(abs(expected), 1e-300)
        worst = max(worst, abs(mass_by_hd[i] - expected) / denom)
    return worst


def accumulator_partition_residual(accumulator, events, charge) -> float:
    """Check a :class:`ClassAccumulator` against its defining stream.

    Verifies the partition identities ``Σ_{i,z} n_{i,z} = n_transitions``
    and ``hd_counts == oracle per-class counts``, plus charge-mass
    conservation ``Σ sums = Σ charge``.  Returns the worst relative
    residual of the float identities (count identities must hold exactly
    and raise otherwise).
    """
    n = len(events.hd)
    if accumulator.n_samples != n:
        raise VerificationError(
            f"accumulator holds {accumulator.n_samples} samples, "
            f"stream has {n} transitions"
        )
    expected_counts = oracle_class_counts(events.hd, accumulator.width)
    if not np.array_equal(accumulator.hd_counts, expected_counts):
        raise VerificationError("per-class counts disagree with the oracle")
    total = float(np.sum(np.asarray(charge, dtype=np.float64)))
    got = float(accumulator.sums.sum())
    denom = max(abs(total), 1e-300)
    return abs(got - total) / denom
