"""Experiment harness: characterize-once, evaluate-many pipelines.

Every table and figure in the paper shares the same two building blocks:
a characterized model per (module kind, width) and a reference power trace
per (module, data type).  The :class:`Harness` caches both so the benchmark
suite does not re-simulate shared prerequisites.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuit.power import PowerSimulator, PowerTrace
from ..core.characterize import CharacterizationResult
from ..obs.tracing import span
from ..core.events import TransitionEvents, classify_transitions
from ..core.metrics import average_error, cycle_error
from ..modules.library import DatapathModule, make_module
from ..runtime.cache import ModelCache
from ..runtime.service import CharacterizationJob, characterize_jobs
from ..signals.registry import make_operand_streams
from ..signals.streams import PatternStream, module_stimulus


def data_type_seed(data_type: str) -> int:
    """Stable per-data-type sub-seed for evaluation streams.

    A digest rather than a character sum: ``sum(ord(c))`` mapped anagram
    or permuted data-type names (e.g. custom registry entries ``"ab"`` and
    ``"ba"``) to identical seeds and therefore identical streams.  CRC-32
    is stable across processes (unlike randomized ``hash()``) and distinct
    for distinct names.
    """
    return zlib.crc32(data_type.encode("utf-8"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes:
        n_characterization: Random patterns per characterization run.
        n_eval: Patterns per evaluation stream (the paper used 5000-10000).
        seed: Base RNG seed; all sub-seeds derive from it deterministically.
        glitch_aware: Reference simulator engine selection.
        glitch_weight: Charge weight of glitch toggles.
        basic_stimulus: Characterization stream for the basic model
            ("uniform_hd" stratifies event classes; "random" is the paper's
            literal stream).
        enhanced_stimulus: Characterization stream for the enhanced model.
        engine: Simulation kernel ("auto", "bool" or "compiled").  The
            default "auto" runs the compiled tape on streams of at least
            64 transitions and "bool" on shorter ones.  Engines are
            bit-identical, so this is a speed knob, not a provenance
            knob — the persistent cache deliberately excludes it from
            its keys (see :func:`repro.runtime.cache._config_payload`).
        self_check: When True, every freshly simulated evaluation trace
            has a short prefix re-simulated by the pure-Python oracle
            (:func:`repro.verify.oracles.verify_trace_prefix`) before it
            is used or stored.  A mismatch raises
            :class:`~repro.verify.oracles.VerificationError` immediately
            instead of contaminating downstream tables.  Like ``engine``,
            this cannot change results, only reject wrong ones, so the
            cache also excludes it from its keys.
    """

    n_characterization: int = 4000
    n_eval: int = 5000
    seed: int = 1999
    glitch_aware: bool = True
    glitch_weight: float = 1.0
    basic_stimulus: str = "uniform_hd"
    enhanced_stimulus: str = "mixed"
    engine: str = "auto"
    self_check: bool = False


@dataclass(frozen=True)
class EvaluationRow:
    """Model-vs-reference errors for one (module, data type) pair.

    All errors in percent, as reported in the paper's tables.
    """

    kind: str
    operand_width: int
    data_type: str
    cycle_error_basic: float
    average_error_basic: float
    cycle_error_enhanced: Optional[float] = None
    average_error_enhanced: Optional[float] = None
    reference_average_charge: float = 0.0


class Harness:
    """Caching pipeline runner for all paper experiments.

    Args:
        config: Experiment knobs; the stock configuration by default.
        cache: Optional persistent :class:`~repro.runtime.cache.ModelCache`.
            When given, characterizations and evaluation traces are looked
            up on disk before any simulation runs and stored after; the
            content-addressed key covers the full config, seed and
            code-version tag, so a stale entry can never be served.

    Attributes:
        counters: Work/hit-rate telemetry of this harness instance —
            ``characterization_hits``/``misses`` and ``trace_hits``/
            ``misses`` against the *disk* cache, ``simulated_patterns``
            (patterns actually pushed through the reference simulator; 0
            on a fully cache-served run), ``simulated_toggles`` (total
            toggle events those simulations counted), per-engine run
            counts (``engine_bool_runs``/``engine_compiled_runs``, so
            the kernel that did the work is observable, not assumed),
            ``characterize_seconds`` / ``simulate_seconds`` wall-clock
            totals, and ``self_checks`` (oracle prefix verifications run
            when ``config.self_check`` is on).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        cache: Optional[ModelCache] = None,
    ):
        self.config = config or ExperimentConfig()
        self.cache = cache
        self.counters: Dict[str, float] = {
            "characterization_hits": 0,
            "characterization_misses": 0,
            "trace_hits": 0,
            "trace_misses": 0,
            "simulated_patterns": 0,
            "simulated_toggles": 0,
            "engine_bool_runs": 0,
            "engine_compiled_runs": 0,
            "characterize_seconds": 0.0,
            "simulate_seconds": 0.0,
            "self_checks": 0,
        }
        self._modules: Dict[Tuple[str, int], DatapathModule] = {}
        self._characterizations: Dict[
            Tuple[str, int, bool], CharacterizationResult
        ] = {}
        self._eval_data: Dict[
            Tuple[str, int, str], Tuple[TransitionEvents, PowerTrace]
        ] = {}

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def module(self, kind: str, width: int) -> DatapathModule:
        key = (kind, width)
        if key not in self._modules:
            self._modules[key] = make_module(kind, width)
        return self._modules[key]

    def simulator(self, kind: str, width: int) -> PowerSimulator:
        module = self.module(kind, width)
        return PowerSimulator(
            module.compiled,
            glitch_aware=self.config.glitch_aware,
            glitch_weight=self.config.glitch_weight,
            engine=getattr(self.config, "engine", "auto"),
        )

    def _record_simulation(self, simulator: PowerSimulator) -> None:
        """Fold one simulator run's stats into the harness counters."""
        stats = simulator.last_stats
        if stats is None:
            return
        self.counters["simulated_toggles"] += stats.total_toggles
        self.counters[f"engine_{stats.engine}_runs"] += 1

    def _self_check(
        self, module: DatapathModule, bits: np.ndarray, trace: PowerTrace
    ) -> None:
        """Oracle-check a trace prefix when ``config.self_check`` is set."""
        if not getattr(self.config, "self_check", False):
            return
        from ..verify.oracles import verify_trace_prefix

        verify_trace_prefix(
            module.netlist, bits, trace,
            glitch_aware=self.config.glitch_aware,
            glitch_weight=self.config.glitch_weight,
            prefix=16,
        )
        self.counters["self_checks"] += 1

    def characterization(
        self, kind: str, width: int, enhanced: bool = False
    ) -> CharacterizationResult:
        """Characterize (cached, memory then disk) one module instance.

        Goes through :func:`~repro.runtime.service.characterize_jobs`, so
        the result equals ``Session(config).characterize(kind, width)``.
        """
        key = (kind, width, enhanced)
        if key not in self._characterizations:
            with span(
                "harness.characterize", kind=kind, width=width,
                enhanced=enhanced,
            ):
                report = characterize_jobs(
                    [CharacterizationJob(kind, width, enhanced)],
                    config=self.config, jobs=1, cache=self.cache,
                )
            result = report.results[0]
            self.counters["characterization_hits"] += report.cache_hits
            self.counters["characterization_misses"] += report.cache_misses
            if not report.cache_hits:
                self.counters["characterize_seconds"] += (
                    report.elapsed_seconds
                )
                self.counters["simulated_patterns"] += result.n_patterns
            self._characterizations[key] = result
        return self._characterizations[key]

    def evaluation_data(
        self, kind: str, width: int, data_type: str
    ) -> Tuple[TransitionEvents, PowerTrace]:
        """Events + reference trace (cached) for one evaluation stream."""
        key = (kind, width, data_type)
        if key not in self._eval_data:
            # Stable per-data-type seed (str hash() is randomized per run).
            seed = self.config.seed + data_type_seed(data_type)
            disk_key = None
            if self.cache is not None:
                disk_key = self.cache.trace_key(
                    kind, width, data_type, self.config, seed
                )
                cached = self.cache.load_trace(disk_key)
                if cached is not None:
                    self.counters["trace_hits"] += 1
                    self._eval_data[key] = cached
                    return cached
                self.counters["trace_misses"] += 1
            module = self.module(kind, width)
            streams = make_operand_streams(
                module, data_type, self.config.n_eval, seed=seed
            )
            bits = module_stimulus(module, streams)
            simulator = self.simulator(kind, width)
            started = time.perf_counter()
            trace = simulator.simulate(bits)
            self.counters["simulate_seconds"] += (
                time.perf_counter() - started
            )
            self.counters["simulated_patterns"] += len(bits)
            self._record_simulation(simulator)
            self._self_check(module, bits, trace)
            events = classify_transitions(bits)
            self._eval_data[key] = (events, trace)
            if self.cache is not None and disk_key is not None:
                self.cache.store_trace(
                    disk_key, events, trace,
                    meta={"kind": kind, "width": width,
                          "data_type": data_type},
                )
        return self._eval_data[key]

    # ------------------------------------------------------------------
    # One table cell
    # ------------------------------------------------------------------
    def evaluate(
        self,
        kind: str,
        width: int,
        data_type: str,
        enhanced: bool = False,
    ) -> EvaluationRow:
        """Model-vs-reference errors for one module and data type."""
        with span(
            "harness.evaluate", kind=kind, width=width, data_type=data_type,
        ):
            characterization = self.characterization(
                kind, width, enhanced=enhanced
            )
            events, trace = self.evaluation_data(kind, width, data_type)
        basic = characterization.model.predict_cycle(events.hd)
        row = dict(
            kind=kind,
            operand_width=width,
            data_type=data_type,
            cycle_error_basic=cycle_error(basic, trace.charge),
            average_error_basic=average_error(basic, trace.charge),
            reference_average_charge=trace.average_charge,
        )
        if enhanced and characterization.enhanced is not None:
            est = characterization.enhanced.predict_cycle(
                events.hd, events.stable_zeros
            )
            row["cycle_error_enhanced"] = cycle_error(est, trace.charge)
            row["average_error_enhanced"] = average_error(est, trace.charge)
        return EvaluationRow(**row)

    def evaluate_streams(
        self,
        kind: str,
        width: int,
        streams: Sequence[PatternStream],
        enhanced: bool = False,
    ) -> EvaluationRow:
        """Like :meth:`evaluate` but with caller-provided operand streams."""
        module = self.module(kind, width)
        bits = module_stimulus(module, streams)
        simulator = self.simulator(kind, width)
        trace = simulator.simulate(bits)
        self._record_simulation(simulator)
        self._self_check(module, bits, trace)
        events = classify_transitions(bits)
        characterization = self.characterization(kind, width, enhanced=enhanced)
        basic = characterization.model.predict_cycle(events.hd)
        row = dict(
            kind=kind,
            operand_width=width,
            data_type=",".join(s.name for s in streams),
            cycle_error_basic=cycle_error(basic, trace.charge),
            average_error_basic=average_error(basic, trace.charge),
            reference_average_charge=trace.average_charge,
        )
        if enhanced and characterization.enhanced is not None:
            est = characterization.enhanced.predict_cycle(
                events.hd, events.stable_zeros
            )
            row["cycle_error_enhanced"] = cycle_error(est, trace.charge)
            row["average_error_enhanced"] = average_error(est, trace.charge)
        return EvaluationRow(**row)
