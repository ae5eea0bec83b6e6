"""Seeded differential fuzzing of the simulation and statistics stack.

A fuzz *case* is a small, fully described experiment: one module kind at
one width, one stimulus stream, one simulator configuration.  For every
case the fuzzer runs the production ``compiled`` engine against the
readable ``bool`` reference and against the
:mod:`repro.verify.oracles` golden model, and checks a set of
*metamorphic relations* — transformations of the input whose effect on
the output is known exactly:

* **engine parity** — identical ``charge``/``total_toggles`` between
  the compiled instruction-tape engine and the ``bool`` reference at
  equal chunk size (fuzzed instead of example-tested);
* **oracle agreement** — dense per-net toggles, per-cycle totals and
  charge against the per-gate Python reference, on a stream prefix;
* **golden function** — settled outputs must equal the module's integer
  reference function;
* **concatenation** — splitting a stream at any cycle and concatenating
  the two traces must reproduce the full trace (toggles exactly, charge to
  float-summation tolerance);
* **accumulator merge** — folding a stream into one
  :class:`~repro.core.accumulator.ClassAccumulator` must equal merging two
  half-stream accumulators (counts exactly, sums to tolerance);
* **operand swap** — commutative, structurally symmetric modules
  (:data:`SWAP_SYMMETRIC_KINDS`) consume identical power when the operands
  are exchanged;
* **classification permutation** — Hamming distance and stable-zero
  counts are invariant under any permutation of input bit columns;
* **cache keys** — the persistent cache must key identically for
  bit-identical engines (``engine`` is speed provenance, not result
  provenance);
* **model identity** — one ``(spec, width)`` yields bit-identical
  coefficients through every way of obtaining a model: the ``Session``
  facade, its registry, the experiment harness, a ``repro.flow`` graph
  binding and ``repro-power characterize --json``.

On a mismatch the case is handed to :mod:`repro.verify.shrink`, which
minimizes it and writes a standalone repro script under
``artifacts/repros/``.  Entry points: ``repro-power verify fuzz`` and
``make fuzz`` / ``make verify``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.packed import PACKED_AVAILABLE
from ..circuit.power import ENGINES, PowerSimulator
from ..circuit.simulate import (
    evaluate_outputs,
    functional_values,
    unit_delay_transition,
)
from ..core.accumulator import ClassAccumulator
from ..core.characterize import (
    corner_input_bits,
    random_input_bits,
    uniform_hd_input_bits,
)
from ..core.events import classify_transitions
from ..modules.library import DatapathModule, make_module, module_kinds
from .oracles import oracle_power_trace

#: Module kinds whose netlists are bit-for-bit symmetric under exchanging
#: the two operands: every gate that mixes ``a_i`` and ``b_i`` is itself
#: commutative (XOR/MAJ/AND/OR carry structures), so internal net values
#: are invariant and the operand input nets merely swap toggle counts.
#: Multipliers/subtractors/comparators are structurally asymmetric and are
#: deliberately absent.
SWAP_SYMMETRIC_KINDS: Tuple[str, ...] = (
    "ripple_adder",
    "cla_adder",
    "carry_select_adder",
    "kogge_stone_adder",
)

#: Kinds exercised by default: everything registered.
DEFAULT_KINDS: Tuple[str, ...] = tuple(module_kinds())

_STIMULI: Dict[str, Callable] = {
    "random": random_input_bits,
    "uniform_hd": uniform_hd_input_bits,
    "corner": corner_input_bits,
}

#: Float tolerance for relations that reorder float additions (stream
#: splits, accumulator merges).  Engine parity at equal chunk size is
#: exact and uses no tolerance at all.
SPLIT_RTOL = 1e-12
#: Oracle charge tolerance: the oracle sums per-net charge in plain Python
#: order, the engines through a BLAS matmul.
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class FuzzCase:
    """One fully described differential-fuzz experiment.

    The triple the shrinker minimizes is ``(n_patterns, width, seed)``;
    the remaining fields select the code paths under test.
    """

    kind: str
    width: int
    n_patterns: int
    seed: int
    glitch_aware: bool = True
    glitch_weight: float = 1.0
    chunk_size: Optional[int] = None
    stimulus: str = "random"

    def __post_init__(self):
        if self.n_patterns < 2:
            raise ValueError("n_patterns must be >= 2 (one transition)")
        if self.stimulus not in _STIMULI:
            raise ValueError(
                f"unknown stimulus {self.stimulus!r}; use {sorted(_STIMULI)}"
            )

    @property
    def n_transitions(self) -> int:
        return self.n_patterns - 1

    def to_dict(self) -> Dict:
        return asdict(self)

    def describe(self) -> str:
        chunk = self.chunk_size if self.chunk_size is not None else "default"
        return (
            f"{self.kind}/w{self.width} {self.stimulus} "
            f"n={self.n_patterns} seed={self.seed} "
            f"gw={self.glitch_weight if self.glitch_aware else 'zero-delay'} "
            f"chunk={chunk}"
        )


@dataclass(frozen=True)
class Mismatch:
    """One failed check of one case."""

    check: str
    case: FuzzCase
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.case.describe()}: {self.detail}"


def make_stream(case: FuzzCase, module: DatapathModule) -> np.ndarray:
    """The deterministic stimulus stream of a case."""
    bits = _STIMULI[case.stimulus](
        case.n_patterns, module.input_bits, seed=case.seed
    )
    return np.asarray(bits[: case.n_patterns], dtype=bool)


def _simulator(case: FuzzCase, module: DatapathModule, engine: str) -> PowerSimulator:
    return PowerSimulator(
        module.compiled,
        glitch_aware=case.glitch_aware,
        glitch_weight=case.glitch_weight,
        chunk_size=case.chunk_size,
        engine=engine,
    )


def _first_diff(a: np.ndarray, b: np.ndarray) -> str:
    index = np.nonzero(np.asarray(a) != np.asarray(b))[0]
    if len(index) == 0:
        return "no per-element diff (length/shape mismatch)"
    j = int(index[0])
    return (
        f"first diff at cycle {j}: {np.asarray(a)[j]!r} vs "
        f"{np.asarray(b)[j]!r} ({len(index)} differing cycles)"
    )


# ----------------------------------------------------------------------
# Individual checks.  Each returns a list of Mismatch (empty = pass).
# ----------------------------------------------------------------------
def check_engine_parity(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """Compiled vs bool: exact charge and toggle traces at equal chunking.

    ``bool`` is the reference the compiled engine is compared against.
    """
    if not PACKED_AVAILABLE:
        return []
    ref = _simulator(case, module, "bool").simulate(bits)
    got = _simulator(case, module, "compiled").simulate(bits)
    out = []
    if not np.array_equal(ref.total_toggles, got.total_toggles):
        out.append(Mismatch(
            "engine_parity_toggles_compiled", case,
            _first_diff(ref.total_toggles, got.total_toggles),
        ))
    if not np.array_equal(ref.charge, got.charge):
        out.append(Mismatch(
            "engine_parity_charge_compiled", case,
            _first_diff(ref.charge, got.charge),
        ))
    return out


def check_oracle_trace(
    case: FuzzCase,
    module: DatapathModule,
    bits: np.ndarray,
    prefix: int = 24,
) -> List[Mismatch]:
    """Both engines vs the per-gate Python golden model, on a prefix."""
    n = min(prefix, case.n_transitions)
    head = bits[: n + 1]
    oracle = oracle_power_trace(
        module.netlist, head,
        glitch_aware=case.glitch_aware, glitch_weight=case.glitch_weight,
    )
    out: List[Mismatch] = []
    engines = ["bool"] + (["compiled"] if PACKED_AVAILABLE else [])
    for engine in engines:
        trace = _simulator(case, module, engine).simulate(head)
        if not np.array_equal(oracle.total_toggles, trace.total_toggles):
            out.append(Mismatch(
                f"oracle_toggles_{engine}", case,
                _first_diff(oracle.total_toggles, trace.total_toggles),
            ))
        if not np.allclose(
            oracle.charge, trace.charge, rtol=ORACLE_RTOL, atol=0.0
        ):
            out.append(Mismatch(
                f"oracle_charge_{engine}", case,
                _first_diff(oracle.charge, trace.charge),
            ))
    # Dense per-net toggle matrix against the boolean kernel directly.
    if case.glitch_aware:
        settled = functional_values(module.compiled, head[:-1])
        _, dense = unit_delay_transition(module.compiled, settled, head[1:])
        if not np.array_equal(dense.astype(np.int64), oracle.per_net_toggles):
            nets = np.nonzero(
                (dense.astype(np.int64) != oracle.per_net_toggles).any(axis=1)
            )[0]
            out.append(Mismatch(
                "oracle_per_net_toggles", case,
                f"{len(nets)} nets disagree, first net {int(nets[0])}",
            ))
    return out


def check_golden_function(
    case: FuzzCase,
    module: DatapathModule,
    bits: np.ndarray,
    max_rows: int = 64,
) -> List[Mismatch]:
    """Settled outputs must equal the module's integer reference function."""
    rows = bits[: min(max_rows, len(bits))]
    outputs = evaluate_outputs(module.compiled, rows)
    weights_out = 1 << np.arange(module.output_width, dtype=np.int64)
    got = outputs.astype(np.int64) @ weights_out
    start = 0
    operands = []
    for _name, width in module.operand_specs:
        weights = 1 << np.arange(width, dtype=np.int64)
        operands.append(rows[:, start:start + width].astype(np.int64) @ weights)
        start += width
    for j in range(len(rows)):
        expected = module.golden(*(int(op[j]) for op in operands))
        if int(got[j]) != int(expected):
            return [Mismatch(
                "golden_function", case,
                f"pattern {j}: netlist output {int(got[j])}, "
                f"golden {int(expected)}",
            )]
    return []


def check_concatenation(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """trace(stream) == trace(head) ++ trace(tail) when split anywhere."""
    if case.n_transitions < 2:
        return []
    sim = _simulator(case, module, "auto")
    full = sim.simulate(bits)
    split = case.n_transitions // 2
    head = sim.simulate(bits[: split + 1])
    tail = sim.simulate(bits[split:])
    toggles = np.concatenate([head.total_toggles, tail.total_toggles])
    charge = np.concatenate([head.charge, tail.charge])
    out = []
    if not np.array_equal(full.total_toggles, toggles):
        out.append(Mismatch(
            "concat_toggles", case, _first_diff(full.total_toggles, toggles),
        ))
    if not np.allclose(full.charge, charge, rtol=SPLIT_RTOL, atol=0.0):
        out.append(Mismatch(
            "concat_charge", case, _first_diff(full.charge, charge),
        ))
    return out


def check_accumulator_merge(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """One-shot accumulation == merge of split-stream accumulators."""
    if case.n_transitions < 2:
        return []
    trace = _simulator(case, module, "auto").simulate(bits)
    events = classify_transitions(bits)
    width = module.input_bits
    split = case.n_transitions // 2

    whole = ClassAccumulator(width).update(
        events.hd, events.stable_zeros, trace.charge
    )
    left = ClassAccumulator(width).update(
        events.hd[:split], events.stable_zeros[:split], trace.charge[:split]
    )
    right = ClassAccumulator(width).update(
        events.hd[split:], events.stable_zeros[split:], trace.charge[split:]
    )
    merged = left.merge(right)
    out = []
    if not np.array_equal(whole.counts, merged.counts):
        out.append(Mismatch(
            "accumulator_merge_counts", case,
            f"count matrices differ in "
            f"{int((whole.counts != merged.counts).sum())} cells",
        ))
    for name in ("sums", "sumsq"):
        a, b = getattr(whole, name), getattr(merged, name)
        if not np.allclose(a, b, rtol=SPLIT_RTOL, atol=1e-300):
            out.append(Mismatch(
                f"accumulator_merge_{name}", case,
                f"max abs diff {float(np.abs(a - b).max())!r}",
            ))
    return out


def check_operand_swap(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """Symmetric modules consume identical power with operands exchanged."""
    if case.kind not in SWAP_SYMMETRIC_KINDS:
        return []
    specs = module.operand_specs
    if len(specs) < 2 or specs[0][1] != specs[1][1]:
        return []
    w = specs[0][1]
    swapped = bits.copy()
    swapped[:, :w] = bits[:, w:2 * w]
    swapped[:, w:2 * w] = bits[:, :w]
    sim = _simulator(case, module, "auto")
    ref = sim.simulate(bits)
    got = sim.simulate(swapped)
    out = []
    if not np.array_equal(ref.total_toggles, got.total_toggles):
        out.append(Mismatch(
            "swap_toggles", case,
            _first_diff(ref.total_toggles, got.total_toggles),
        ))
    if not np.allclose(ref.charge, got.charge, rtol=ORACLE_RTOL, atol=0.0):
        out.append(Mismatch(
            "swap_charge", case, _first_diff(ref.charge, got.charge),
        ))
    return out


def check_classification_permutation(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """Hd / stable-zero classification is input-bit-permutation invariant."""
    rng = np.random.default_rng(case.seed ^ 0x5EED)
    perm = rng.permutation(module.input_bits)
    ref = classify_transitions(bits)
    got = classify_transitions(bits[:, perm])
    out = []
    if not np.array_equal(ref.hd, got.hd):
        out.append(Mismatch(
            "classification_perm_hd", case, _first_diff(ref.hd, got.hd),
        ))
    if not np.array_equal(ref.stable_zeros, got.stable_zeros):
        out.append(Mismatch(
            "classification_perm_zeros", case,
            _first_diff(ref.stable_zeros, got.stable_zeros),
        ))
    return out


def check_session_stream(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """Session-path metamorphic relation: streaming appends through a
    :class:`~repro.serve.sessions.SessionStore` — awkward segmentation
    included — must reproduce the offline one-shot estimate to 1e-9.

    The model is synthetic (seeded random coefficients, no
    characterization) because the relation under test is the *session
    plumbing* — seam carry, accumulator updates, lifecycle — not the
    coefficients themselves.
    """
    if case.n_transitions < 2:
        return []
    from ..core.estimator import PowerEstimator
    from ..core.hd_model import HdPowerModel
    from ..serve.registry import ServedModel
    from ..serve.sessions import SessionStore

    rng = np.random.default_rng(case.seed ^ 0x7E55)
    width = module.input_bits
    model = HdPowerModel(
        name=f"fuzz-{case.kind}-{case.width}",
        width=width,
        coefficients=rng.uniform(0.1, 5.0, size=width + 1),
    )
    served = ServedModel(
        kind=case.kind, width=case.width, enhanced=False,
        module=module, estimator=PowerEstimator(model),
        source="synthetic",
    )
    store = SessionStore(resolver=lambda *args: served)
    session_id = store.create(case.kind, case.width).session_id

    # Awkward segmentation: 1-row head, an empty segment, then halves.
    split = 1 + case.n_patterns // 2
    segments = (bits[:1], bits[1:1], bits[1:split], bits[split:])
    running = None
    for segment in segments:
        running = store.append(session_id, segment)
    final = store.finalize(session_id)
    offline = served.estimator.estimate_from_bits(bits)
    out = []
    if running is None or final.n_rows != case.n_patterns:
        out.append(Mismatch(
            "session_stream_rows", case,
            f"fed {case.n_patterns} rows, session saw {final.n_rows}",
        ))
    if not np.allclose(
        final.average_charge, offline.average_charge,
        rtol=ORACLE_RTOL, atol=0.0,
    ):
        out.append(Mismatch(
            "session_stream_parity", case,
            f"running average {final.average_charge!r} vs offline "
            f"{offline.average_charge!r}",
        ))
    return out


def check_calibration(
    case: FuzzCase, module: DatapathModule, bits: np.ndarray
) -> List[Mismatch]:
    """Technology-calibration relations (``repro.tech``), on a real trace.

    Four metamorphic relations over the same normalized simulator charge:

    * ``E ∝ V_dd²`` exactly (doubling vdd quadruples per-op energy);
    * dynamic power is exactly linear in ``f_clk``;
    * at each node's nominal operating point, energy per op decreases
      strictly monotonically as the feature size shrinks (the table's
      Dennard-ordering invariant applied through a live estimate);
    * the identity calibration (``node=None``) returns the underlying
      estimate object itself — the normalized path is bit-identical.
    """
    if case.n_transitions < 1:
        return []
    from ..tech import Calibration, get_node, node_names

    charge = float(
        _simulator(case, module, "auto").simulate(bits).average_charge
    )
    out = []
    if charge <= 0.0:
        return out

    # 1) E ∝ V_dd² — exact, not approximate: same floats, one multiply.
    node = get_node("45nm")
    base = Calibration(node=node, vdd=1.0)
    doubled = Calibration(node=node, vdd=2.0)
    ratio = doubled.energy_joules(charge) / base.energy_joules(charge)
    if ratio != 4.0:
        out.append(Mismatch(
            "calibration_vdd_square", case,
            f"E(2·vdd)/E(vdd) = {ratio!r}, expected exactly 4.0",
        ))

    # 2) P linear in f_clk — doubling the clock doubles dynamic power.
    slow = Calibration(node=node, f_clk=1e8).power_watts(charge)
    fast = Calibration(node=node, f_clk=2e8).power_watts(charge)
    if fast != 2.0 * slow:
        out.append(Mismatch(
            "calibration_f_clk_linear", case,
            f"P(2·f)/P(f) = {fast / slow!r}, expected exactly 2.0",
        ))

    # 3) Monotone energy across shrinking nodes at nominal conditions.
    energies = [
        float(Calibration(node=get_node(name)).energy_joules(charge))
        for name in node_names()
    ]
    for previous, current, name in zip(
        energies, energies[1:], node_names()[1:]
    ):
        if not current < previous:
            out.append(Mismatch(
                "calibration_node_monotone", case,
                f"energy/op did not decrease shrinking into {name}: "
                f"{previous!r} -> {current!r}",
            ))

    # 4) node=None is the identity: the very same estimate object.
    from ..core.estimator import EstimationResult

    estimate = EstimationResult(average_charge=charge, method="fuzz")
    if Calibration().apply(estimate) is not estimate:
        out.append(Mismatch(
            "calibration_identity", case,
            "identity calibration did not return the estimate unchanged",
        ))
    return out


def check_cache_key_engine_independence() -> List[Mismatch]:
    """Cache keys must not depend on the (bit-identical) engine choice."""
    from ..eval.harness import ExperimentConfig
    from ..runtime.cache import ModelCache

    cache = ModelCache("/nonexistent-but-never-touched")
    reference_case = FuzzCase(kind="ripple_adder", width=4, n_patterns=2,
                              seed=0)
    keys = set()
    trace_keys = set()
    for engine in ENGINES:
        config = ExperimentConfig(engine=engine)
        keys.add(cache.characterization_key(
            reference_case.kind, reference_case.width, False, config, 7
        ))
        trace_keys.add(cache.trace_key(
            reference_case.kind, reference_case.width, "III", config, 7
        ))
    out = []
    if len(keys) != 1:
        out.append(Mismatch(
            "cache_key_engine", reference_case,
            f"characterization keys split by engine: {sorted(keys)}",
        ))
    if len(trace_keys) != 1:
        out.append(Mismatch(
            "cache_key_engine_trace", reference_case,
            f"trace keys split by engine: {sorted(trace_keys)}",
        ))
    return out


def check_variant_spec() -> List[Mismatch]:
    """Spec-layer metamorphic relations for parameterized variants.

    For every registered family: the canonical string round-trips
    through the parser, canonicalization is idempotent, spelling the
    parameters in the kind string vs the ``params`` argument lands on
    the same canonical kind (and therefore the same cache key), and
    degenerate parameter values collapse to the exact parent with a
    zero error bound.  Plain kinds must canonicalize to themselves.
    """
    from ..eval.harness import ExperimentConfig
    from ..modules.library import MODULE_KINDS
    from ..modules.spec import (
        ModuleSpec,
        UnknownModuleError,
        canonical_kind,
        parse_spec,
        resolve_spec,
    )
    from ..runtime.cache import ModelCache

    out: List[Mismatch] = []
    width = 6
    case = FuzzCase(kind="<spec>", width=width, n_patterns=2, seed=0)
    cache = ModelCache("/nonexistent-but-never-touched")
    config = ExperimentConfig()

    # Name-sorted params: spelling order never matters.
    ordered = ModuleSpec("x", (("a", 1), ("b", 2)))
    swapped = ModuleSpec("x", (("b", 2), ("a", 1)))
    if ordered.canonical != swapped.canonical:
        out.append(Mismatch(
            "spec_param_order", case,
            f"param order leaked into the canonical form: "
            f"{ordered.canonical!r} != {swapped.canonical!r}",
        ))

    for name, entry in MODULE_KINDS.items():
        if not entry.params:
            if canonical_kind(name, width) != name:
                out.append(Mismatch(
                    "spec_plain_identity", case,
                    f"plain kind {name!r} did not canonicalize to itself",
                ))
            continue
        canonical = canonical_kind(name, width)
        spec = parse_spec(canonical)
        if spec.canonical != canonical:
            out.append(Mismatch(
                "spec_roundtrip", case,
                f"{canonical!r} parsed back as {spec.canonical!r}",
            ))
        if canonical_kind(canonical, width) != canonical:
            out.append(Mismatch(
                "spec_idempotent", case,
                f"canonicalization of {name!r} is not idempotent",
            ))
        pspec = entry.params[0]
        candidates = (
            pspec.choices if pspec.type == "choice"
            else range(0, width + 1)
        )
        for value in candidates:
            try:
                resolved = resolve_spec(
                    name, width=width, params={pspec.name: value}
                )
            except UnknownModuleError:
                continue
            via_string = canonical_kind(
                f"{name}[{pspec.name}={value}]", width
            )
            if via_string != resolved.kind:
                out.append(Mismatch(
                    "spec_spelling", case,
                    f"{name}[{pspec.name}={value}]: string spelling "
                    f"gave {via_string!r}, params argument "
                    f"{resolved.kind!r}",
                ))
            key_string = cache.characterization_key(
                via_string, width, False, config, 7
            )
            key_params = cache.characterization_key(
                resolved.kind, width, False, config, 7
            )
            if key_string != key_params:
                out.append(Mismatch(
                    "spec_cache_key", case,
                    f"{name}[{pspec.name}={value}]: cache keys split "
                    f"across spellings",
                ))
            filled = {p.name: p.default for p in entry.params}
            filled[pspec.name] = pspec.validate(value, width)
            if entry.degenerate is not None and entry.degenerate(
                filled, width
            ):
                if resolved.kind != entry.parent:
                    out.append(Mismatch(
                        "spec_degenerate_collapse", case,
                        f"{name}[{pspec.name}={value}]/{width} should "
                        f"collapse to {entry.parent!r}, got "
                        f"{resolved.kind!r}",
                    ))
                if entry.error_bound is not None and float(
                    entry.error_bound(filled, width)
                ) != 0.0:
                    out.append(Mismatch(
                        "spec_degenerate_bound", case,
                        f"{name}[{pspec.name}={value}]/{width}: "
                        f"degenerate params with a nonzero error bound",
                    ))
    return out


#: A plain kind, a variant and the ``cmul`` operator's family.
MODEL_IDENTITY_SPECS: Tuple[Tuple[str, int], ...] = (
    ("ripple_adder", 6),
    ("trunc_adder[k=2]", 6),
    ("constant_multiplier[c=77]", 6),
)


def _flow_model(spec: str, width: int, session):
    """The model a one-node ``repro.flow`` graph binds for ``spec``."""
    from ..flow import DatapathPower
    from ..modules.spec import resolve_spec
    from ..stats.propagate import DataflowGraph
    from ..stats.wordstats import WordStats

    graph = DataflowGraph()
    for name in ("a", "b"):
        graph.add_input(name, WordStats(0.0, 16.0, 0.0))
    resolved = resolve_spec(spec, width=width)
    if resolved.entry.name == "constant_multiplier":
        graph.cmul("n", "a", resolved.params["c"] / 256)  # frac_bits=8
    else:
        graph.add("n", "a", "b")
    return DatapathPower(
        graph, session, default_width=width, op_kinds={"add": spec}
    ).binding("n").estimator.model


def _cli_coefficients(spec: str, width: int, config) -> List[float]:
    """Coefficients ``repro-power characterize --json`` prints."""
    import contextlib
    import io
    import json

    from ..cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        main(["characterize", "--kind", spec, "--width", str(width),
              "--patterns", str(config.n_characterization),
              "--seed", str(config.seed), "--json"])
    return json.loads(stdout.getvalue())["jobs"][0].get("coefficients")


def check_model_identity(
    n_patterns: int = 200,
    seed: int = 0,
    specs: Sequence[Tuple[str, int]] = MODEL_IDENTITY_SPECS,
) -> List[Mismatch]:
    """One ``(spec, width)``, one model, whatever the entry point.

    ``Session.characterize`` is the reference; its registry, the
    :class:`~repro.eval.harness.Harness`, a
    :class:`~repro.flow.DatapathPower` node binding and
    ``characterize --json`` must return bit-identical coefficients under
    the same config.  No path has a disk cache, so each characterizes.
    """
    from ..api import Session
    from ..eval.harness import ExperimentConfig, Harness

    config = ExperimentConfig(n_characterization=n_patterns, seed=seed)
    harness = Harness(config)
    out: List[Mismatch] = []
    for spec, width in specs:
        reference = Session(config=config).characterize(spec, width).model
        got = {
            "registry": Session(config=config).registry().get(
                spec, width, mode="exact"
            ).estimator.model.coefficients,
            "harness": harness.characterization(spec, width)
            .model.coefficients,
            "flow": _flow_model(spec, width, Session(config=config))
            .coefficients,
            "cli": _cli_coefficients(spec, width, config),
        }
        for name, coefficients in got.items():
            if not np.array_equal(coefficients, reference.coefficients):
                out.append(Mismatch(
                    f"model_identity_{name}",
                    FuzzCase(kind=spec, width=width,
                             n_patterns=n_patterns, seed=seed),
                    f"{name} coefficients differ from Session.characterize",
                ))
    return out


#: All per-case checks, in execution order.
CASE_CHECKS: Tuple[Callable, ...] = (
    check_engine_parity,
    check_oracle_trace,
    check_golden_function,
    check_concatenation,
    check_accumulator_merge,
    check_operand_swap,
    check_classification_permutation,
    check_session_stream,
    check_calibration,
)


def check_case(
    case: FuzzCase,
    oracle_prefix: int = 24,
    checks: Optional[Sequence[Callable]] = None,
) -> List[Mismatch]:
    """Run every applicable check for one case; empty list means pass.

    This is also the entry point generated repro scripts call — it must
    stay deterministic for a fixed case.
    """
    module = make_module(case.kind, case.width)
    bits = make_stream(case, module)
    mismatches: List[Mismatch] = []
    for check in (CASE_CHECKS if checks is None else checks):
        if check is check_oracle_trace:
            mismatches.extend(check(case, module, bits, prefix=oracle_prefix))
        else:
            mismatches.extend(check(case, module, bits))
    return mismatches


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` session."""

    budget: int
    seed: int
    n_cases: int = 0
    n_transitions: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    shrunk_cases: List[FuzzCase] = field(default_factory=list)
    kind_counts: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.n_cases} cases, {self.n_transitions} transitions "
            f"(budget {self.budget}, seed {self.seed}) "
            f"in {self.seconds:.1f}s",
            f"kinds: " + ", ".join(
                f"{kind}x{count}"
                for kind, count in sorted(self.kind_counts.items())
            ),
        ]
        if self.ok:
            lines.append("result: OK — no cross-engine or oracle mismatches")
        else:
            lines.append(f"result: {len(self.mismatches)} MISMATCH(ES)")
            for mismatch in self.mismatches:
                lines.append(f"  {mismatch}")
            for path in self.repro_paths:
                lines.append(f"  repro script: {path}")
        return "\n".join(lines)


def random_case(
    rng: np.random.Generator,
    kinds: Sequence[str] = DEFAULT_KINDS,
    max_width: int = 6,
    max_patterns: int = 120,
) -> FuzzCase:
    """Draw one random case: kind, width, stream shape, engine knobs."""
    kind = str(rng.choice(list(kinds)))
    width = int(rng.integers(2, max_width + 1))
    n_patterns = int(rng.integers(2, max_patterns + 1))
    glitch_aware = bool(rng.random() > 0.15)
    glitch_weight = float(rng.choice([1.0, 1.0, 0.5, 0.37, 0.0]))
    chunk_size = rng.choice([0, 7, 17, 64])  # 0 -> engine default
    stimulus = str(rng.choice(list(_STIMULI)))
    return FuzzCase(
        kind=kind,
        width=width,
        n_patterns=n_patterns,
        seed=int(rng.integers(0, 2**31)),
        glitch_aware=glitch_aware,
        glitch_weight=glitch_weight if glitch_aware else 1.0,
        chunk_size=int(chunk_size) or None,
        stimulus=stimulus,
    )


def run_fuzz(
    budget: int = 2000,
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
    max_width: int = 6,
    oracle_prefix: int = 24,
    shrink: bool = True,
    artifacts_dir: str = "artifacts/repros",
    max_mismatching_cases: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Differential-fuzz the simulation stack until the budget is spent.

    Args:
        budget: Total transitions to simulate across all cases.
        seed: Session seed; the whole session is reproducible from it.
        kinds: Module kinds to draw from (default: the full registry).
        max_width: Largest operand width drawn.
        oracle_prefix: Transitions per case re-simulated by the Python
            oracle (the expensive part — scale with budget care).
        shrink: Minimize mismatching cases and write repro scripts.
        artifacts_dir: Where repro scripts land.
        max_mismatching_cases: Stop fuzzing after this many distinct
            failing cases (each may carry several mismatches).
        progress: Optional line sink for periodic status.

    Returns:
        A :class:`FuzzReport`; ``report.ok`` is the pass/fail verdict.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    report = FuzzReport(budget=budget, seed=seed)
    report.mismatches.extend(check_cache_key_engine_independence())
    report.mismatches.extend(check_variant_spec())
    report.mismatches.extend(check_model_identity())
    pool = tuple(kinds) if kinds else DEFAULT_KINDS
    failing_cases = 0
    while report.n_transitions < budget:
        case = random_case(rng, kinds=pool, max_width=max_width)
        mismatches = check_case(case, oracle_prefix=oracle_prefix)
        report.n_cases += 1
        report.n_transitions += case.n_transitions
        report.kind_counts[case.kind] = report.kind_counts.get(case.kind, 0) + 1
        if progress is not None and report.n_cases % 25 == 0:
            progress(
                f"  ... {report.n_cases} cases, "
                f"{report.n_transitions}/{budget} transitions"
            )
        if not mismatches:
            continue
        report.mismatches.extend(mismatches)
        failing_cases += 1
        if shrink:
            from .shrink import shrink_case, write_repro

            result = shrink_case(
                case, failing_checks=[m.check for m in mismatches],
                oracle_prefix=oracle_prefix,
            )
            report.shrunk_cases.append(result.minimized)
            path = write_repro(
                result.minimized, result.mismatches, directory=artifacts_dir
            )
            report.repro_paths.append(str(path))
            if progress is not None:
                progress(
                    f"  mismatch in {case.describe()} — shrunk to "
                    f"{result.minimized.describe()}, repro at {path}"
                )
        if failing_cases >= max_mismatching_cases:
            break
    report.seconds = time.perf_counter() - started
    return report
