"""The public facade: one documented entry point for the whole flow.

Callers previously stitched together four layers by hand —
``characterize_module`` for fitting, ``PowerEstimator`` for applying,
``ModelRegistry`` for materialization and ``ModelCache`` for
persistence.  :class:`Session` wraps them behind one object with the
normalized parameter spellings (``engine=``, ``jobs=``, ``enhanced=``)::

    import repro

    session = repro.Session(cache_dir="~/.cache/repro-hd", jobs=4)
    result = session.characterize("ripple_adder", 8)
    estimate = session.estimate("ripple_adder", 8, stream)
    analytic = session.estimate_analytic(
        "ripple_adder", 8,
        operand_stats=[{"mean": 0.0, "variance": 40.0, "rho": 0.3}] * 2,
    )

Everything the facade does is a thin, parity-tested delegation — the
same seeds, the same configuration plumbing — so results match the
layered calls exactly (``tests/test_api.py`` pins ≤ 1e-9).

Every ``kind`` argument also accepts a canonical variant spec string
(``"trunc_adder[k=4]"``) addressing the parameterized approximate /
rewritten datapath families — the registry canonicalizes specs, so
``session.estimate("trunc_adder[k=0]", 8, ...)`` is served by the very
same model as ``session.estimate("ripple_adder", 8, ...)``.  See
``docs/MODULES.md`` for the grammar and the parameter reference.

See ``docs/API.md`` for the full surface.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from .circuit.power import ENGINES
from .core.characterize import CharacterizationResult
from .core.estimator import EstimationResult, PowerEstimator
from .runtime.cache import ModelCache
from .runtime.service import CharacterizationJob, characterize_jobs
from .stats.wordstats import WordStats

__all__ = ["Session"]


class Session:
    """A configured characterization/estimation context.

    Args:
        cache_dir: Directory of the persistent model cache.  ``None``
            (default) disables disk caching — every characterization
            simulates; pass a path (or ``"default"`` for the standard
            ``~/.cache/repro-hd`` location) to enable
            characterize-once/evaluate-many.
        engine: Simulation kernel: ``"auto"`` (default), ``"bool"`` or
            ``"compiled"`` (:data:`~repro.circuit.power.ENGINES`).
            Engines are bit-identical by contract; this is a speed knob.
            Any other value raises ``ValueError`` here, not at the first
            characterization.
        jobs: Worker processes for multi-module characterization fan-out
            (``Session.characterize_many``); single characterizations run
            inline.
        config: Optional :class:`~repro.eval.harness.ExperimentConfig`
            overriding every knob at once; ``engine=`` still wins for the
            kernel selection.
        enhanced: Fit/serve the enhanced (stable-zeros) model by default;
            per-call ``enhanced=`` arguments override.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        engine: Optional[str] = None,
        jobs: int = 1,
        config: Any = None,
        enhanced: bool = False,
    ):
        if config is None:
            from .eval.harness import ExperimentConfig

            config = ExperimentConfig()
        if engine is not None:
            config = dataclasses.replace(config, engine=engine)
        if config.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {config.engine!r}"
            )
        self.config = config
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.enhanced = bool(enhanced)
        if cache_dir is None:
            self.cache: Optional[ModelCache] = None
        elif cache_dir == "default":
            self.cache = ModelCache()
        else:
            self.cache = ModelCache(cache_dir)
        self._registry = None

    # ------------------------------------------------------------------
    # Characterization
    # ------------------------------------------------------------------
    def characterize(
        self, kind: str, width: int, enhanced: Optional[bool] = None
    ) -> CharacterizationResult:
        """Characterize one module instance (cache-backed, strict)."""
        report = characterize_jobs(
            [CharacterizationJob(
                kind, int(width), self._enhanced(enhanced)
            )],
            config=self.config, jobs=1, cache=self.cache, strict=True,
        )
        return report.results[0]

    def characterize_many(
        self, requests: Sequence[Union[CharacterizationJob, tuple]]
    ):
        """Fan a batch of ``(kind, width[, enhanced])`` requests out.

        Returns the underlying
        :class:`~repro.runtime.service.ServiceReport` (per-job results,
        hit/miss counters, failures) using this session's worker count.
        """
        normalized = [
            job if isinstance(job, CharacterizationJob)
            else CharacterizationJob(*job)
            for job in requests
        ]
        return characterize_jobs(
            normalized, config=self.config, jobs=self.jobs,
            cache=self.cache, strict=False,
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        kind: str,
        width: int,
        stream: Any,
        enhanced: Optional[bool] = None,
        node: Any = None,
        vdd: Optional[float] = None,
        f_clk: Optional[float] = None,
    ) -> EstimationResult:
        """Trace-based estimation of a concrete stimulus.

        ``stream`` is either a ``[n, input_bits]`` 0/1 matrix or a list
        of per-operand signed-word lists (the serve wire format).  With
        ``node=`` (or ``vdd=``) the normalized result comes back wrapped
        in a :class:`~repro.tech.CalibratedEstimate` carrying physical
        units; without them it is returned untouched.
        """
        served = self._served(kind, width, enhanced)
        bits = self._as_bits(served, stream)
        result = served.estimator.estimate_from_bits(bits)
        return self._calibrate(result, served, node, vdd, f_clk)

    def estimate_distribution(
        self,
        kind: str,
        width: int,
        distribution: Sequence[float],
        enhanced: Optional[bool] = None,
        node: Any = None,
        vdd: Optional[float] = None,
        f_clk: Optional[float] = None,
    ) -> EstimationResult:
        """Distribution-based estimation (Section 6.3 fast path).

        ``ValueError`` unless ``distribution`` is a pmf: finite entries
        >= 0 summing to 1.
        """
        from .serve.sessions import hd_distribution

        served = self._served(kind, width, enhanced)
        result = served.estimator.estimate_from_distribution(
            hd_distribution(distribution)
        )
        return self._calibrate(result, served, node, vdd, f_clk)

    def estimate_analytic(
        self,
        kind: str,
        width: int,
        operand_stats: Sequence[Union[WordStats, Dict[str, float]]],
        use_distribution: bool = True,
        enhanced: Optional[bool] = None,
        node: Any = None,
        vdd: Optional[float] = None,
        f_clk: Optional[float] = None,
    ) -> EstimationResult:
        """Fully analytic estimation from (μ, σ², ρ) word statistics.

        ``ValueError`` unless every mean is finite, every variance finite
        and >= 0, and every ``|ρ| <= 1``.
        """
        from .serve.sessions import operand_word_stats

        served = self._served(kind, width, enhanced)
        result = served.estimator.estimate_analytic(
            served.module, operand_word_stats(operand_stats),
            use_distribution=use_distribution,
        )
        return self._calibrate(result, served, node, vdd, f_clk)

    def stream(
        self,
        kind: str,
        width: int,
        enhanced: Optional[bool] = None,
        self_check: bool = False,
        check_prefix: int = 8,
        node: Any = None,
        vdd: Optional[float] = None,
        f_clk: Optional[float] = None,
    ):
        """An incremental estimation handle over a long trace.

        Returns a :class:`~repro.serve.sessions.StreamingEstimator`: feed
        it ``[n, input_bits]`` 0/1 segments with ``.append(segment)`` (or
        its alias ``.feed``) and read the running
        :class:`~repro.serve.sessions.RunningEstimate` it returns after
        each one; ``.finalize()`` yields the last estimate.  After K
        appends the running average equals :meth:`estimate` on the
        concatenated trace to well within 1e-9.  With ``self_check=True``
        every appended segment's leading ``check_prefix`` transitions are
        re-verified against the gate-level simulator.  With ``node=`` (or
        ``vdd=``) every running estimate carries a ``physical`` unit
        block alongside the normalized figures.
        """
        from .serve.sessions import StreamingEstimator
        from .tech import Calibration

        calibration = Calibration.from_spec(node=node, vdd=vdd, f_clk=f_clk)
        return StreamingEstimator(
            self._served(kind, width, enhanced),
            self_check=self_check,
            check_prefix=check_prefix,
            calibration=None if calibration.is_identity else calibration,
        )

    # ------------------------------------------------------------------
    # Lower layers, for callers that need them
    # ------------------------------------------------------------------
    def registry(self):
        """The session's :class:`~repro.serve.registry.ModelRegistry`.

        Created lazily, shares the session's config and cache; repeated
        calls return the same instance (so materialized models are
        reused).
        """
        if self._registry is None:
            from .serve.registry import ModelRegistry

            self._registry = ModelRegistry(
                config=self.config, cache=self.cache
            )
        return self._registry

    def estimator(
        self, kind: str, width: int, enhanced: Optional[bool] = None
    ) -> PowerEstimator:
        """A ready :class:`PowerEstimator` for one module instance."""
        return self._served(kind, width, enhanced).estimator

    # ------------------------------------------------------------------
    def _enhanced(self, override: Optional[bool]) -> bool:
        return self.enhanced if override is None else bool(override)

    @staticmethod
    def _calibrate(result, served, node, vdd, f_clk):
        """Apply an optional post-hoc calibration to a facade result.

        The identity (no node, no vdd) returns ``result`` itself — the
        facade parity contract (≤ 1e-9 vs. the layered calls) is really
        bit-identity here.
        """
        if node is None and vdd is None and f_clk is None:
            return result
        from .tech import Calibration

        calibration = Calibration.from_spec(node=node, vdd=vdd, f_clk=f_clk)
        return calibration.apply(result, netlist=served.module)

    def _served(self, kind: str, width: int, enhanced: Optional[bool]):
        return self.registry().get(
            kind, int(width), enhanced=self._enhanced(enhanced)
        )

    @staticmethod
    def _as_bits(served, stream: Any) -> np.ndarray:
        from .serve.sessions import bit_matrix

        if isinstance(stream, np.ndarray) and stream.ndim == 2:
            return bit_matrix(stream, served.module.input_bits)
        if (isinstance(stream, (list, tuple)) and stream
                and all(isinstance(s, (list, tuple, np.ndarray))
                        for s in stream)):
            first = np.asarray(stream[0])
            if first.ndim == 1 and len(stream) == served.module.n_operands:
                from .serve.batching import streams_to_bits

                return streams_to_bits(served.module, stream)
            return bit_matrix(stream, served.module.input_bits)
        raise TypeError(
            "stream must be a 2-D 0/1 matrix or per-operand word lists"
        )

    def __repr__(self) -> str:
        cache = (
            str(self.cache.directory) if self.cache is not None else None
        )
        return (
            f"Session(engine={self.config.engine!r}, jobs={self.jobs}, "
            f"cache={cache!r})"
        )
