"""Characterization service: parallel fan-out over independent modules.

Module characterizations are embarrassingly parallel — each job simulates
its own prototype netlist with its own stream — so the service fans a list
of ``(kind, width, enhanced)`` jobs out over a :class:`ProcessPoolExecutor`.
Workers rebuild the module from its registry key (netlists are cheap to
generate, expensive to pickle) and ship back a
:class:`~repro.core.characterize.CharacterizationResult` whose embedded
:class:`~repro.core.accumulator.ClassAccumulator` carries the complete class
statistics, so the parent can refit, merge or persist without touching raw
pattern streams.

Combined with the persistent :class:`~repro.runtime.cache.ModelCache`, the
service implements the characterize-once/evaluate-many contract: jobs whose
provenance key is already cached are served from disk with zero simulator
work, and the returned :class:`ServiceReport` exposes hit/miss and timing
counters so benchmarks can report the speedup.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.characterize import CharacterizationResult, characterize_module
from ..modules.library import make_module
from ..modules.spec import canonical_kind
from ..obs import tracing
from .cache import ModelCache


def characterization_seed(
    base_seed: int, width: int, enhanced: bool, kind: Optional[str] = None
) -> int:
    """Deterministic per-job seed (the derivation the harness uses).

    ``kind`` is mixed in via a stable crc32 hash (the same construction as
    the evaluation-data seed fix) so that two different module kinds at the
    same width characterize from *different* stimulus streams.  Without it,
    e.g. ``ripple_adder/4`` and ``cla_adder/4`` saw bit-identical
    characterization patterns, coupling their sampling noise.

    ``kind=None`` reproduces the historic kind-blind derivation.  The
    persistent :class:`~repro.runtime.cache.ModelCache` embeds the seed in
    every content address, so entries characterized under the old
    derivation are never served for kind-mixed requests (and vice versa) —
    they are simply orphaned and reclaimed by ``repro-power cache clear``.
    """
    seed = int(base_seed) + width * 17 + (1 if enhanced else 0)
    if kind is not None:
        seed += zlib.crc32(kind.encode("utf-8"))
    return seed


@dataclass(frozen=True)
class CharacterizationJob:
    """One unit of characterization work.

    Attributes:
        kind: Module registry kind (see ``repro-power list-modules``).
        width: Operand width passed to the module generator.
        enhanced: Also fit the enhanced (stable-zeros) model.
    """

    kind: str
    width: int
    enhanced: bool = False

    @property
    def label(self) -> str:
        suffix = "+enhanced" if self.enhanced else ""
        return f"{self.kind}/{self.width}{suffix}"


@dataclass
class ServiceReport:
    """Outcome of one :func:`characterize_jobs` call.

    Attributes:
        jobs: The jobs, in request order.
        results: One result per job (same order).  With ``strict=False``,
            failed jobs hold ``None`` here instead of raising.
        cache_hits: Jobs served from the persistent cache.
        cache_misses: Jobs that had to simulate (including ones that then
            failed).
        failures: Jobs whose characterization raised.
        errors: One entry per job: ``None`` on success, else the rendered
            exception.
        elapsed_seconds: Wall-clock time of the whole call.
        n_workers: Worker processes used for the misses.
    """

    jobs: Tuple[CharacterizationJob, ...]
    results: List[Optional[CharacterizationResult]] = field(
        default_factory=list
    )
    cache_hits: int = 0
    cache_misses: int = 0
    failures: int = 0
    errors: List[Optional[str]] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    n_workers: int = 1

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        text = (
            f"{len(self.jobs)} jobs | cache hits: {self.cache_hits} | "
            f"misses: {self.cache_misses} | workers: {self.n_workers} | "
            f"elapsed: {self.elapsed_seconds:.2f}s"
        )
        if self.failures:
            text += f" | failures: {self.failures}"
        return text


def _config_params(config: Any) -> Dict[str, Any]:
    """Extract the characterization knobs of an experiment config."""
    return {
        "n_characterization": config.n_characterization,
        "seed": config.seed,
        "glitch_aware": config.glitch_aware,
        "glitch_weight": config.glitch_weight,
        "basic_stimulus": config.basic_stimulus,
        "enhanced_stimulus": config.enhanced_stimulus,
        # Speed knob only — engines are bit-identical, so this never
        # appears in cache keys (duck-typed configs may predate it).
        "engine": getattr(config, "engine", "auto"),
    }


def _run_job(
    kind: str,
    width: int,
    enhanced: bool,
    params: Dict[str, Any],
    trace_token: Optional[Dict[str, Any]] = None,
) -> Tuple[CharacterizationResult, Optional[Dict[str, Any]]]:
    """Worker entry point (module-level so the pool can pickle it).

    ``trace_token`` is the explicit cross-process trace handoff: a worker
    re-activates the parent's trace with it and ships its span records
    back as the second element, which the parent grafts in via
    :meth:`~repro.obs.TraceContext.absorb`.  Inline (same-process) calls
    pass ``None`` — their spans land in the caller's active context
    directly and the payload is ``None``.
    """
    with tracing.remote_trace(trace_token) as trace_ctx:
        module = make_module(kind, width)
        result = characterize_module(
            module,
            n_patterns=params["n_characterization"],
            seed=characterization_seed(
                params["seed"], width, enhanced, kind
            ),
            enhanced=enhanced,
            glitch_aware=params["glitch_aware"],
            glitch_weight=params["glitch_weight"],
            stimulus=(
                params["enhanced_stimulus"] if enhanced
                else params["basic_stimulus"]
            ),
            engine=params.get("engine", "auto"),
        )
    return result, trace_ctx.payload() if trace_ctx is not None else None


def _canonical_job(job: CharacterizationJob) -> CharacterizationJob:
    """The job under its canonical kind, so every spelling of one model
    gets one seed and one cache key; an unresolvable kind fails per job."""
    try:
        kind = canonical_kind(job.kind, job.width)
    except ValueError:
        return job
    return CharacterizationJob(kind, job.width, job.enhanced)


def characterize_jobs(
    requests: Sequence[CharacterizationJob],
    config: Any = None,
    jobs: int = 1,
    cache: Optional[ModelCache] = None,
    strict: bool = True,
) -> ServiceReport:
    """Characterize many modules, in parallel, behind the persistent cache.

    Args:
        requests: Jobs to run; results come back in the same order.
        config: An :class:`~repro.eval.harness.ExperimentConfig` (or any
            object with the same characterization attributes).  Defaults to
            the stock configuration.
        jobs: Worker processes; 1 runs inline (no pool, no pickling).
        cache: Persistent cache consulted before — and filled after —
            simulating.  ``None`` disables disk caching.
        strict: When True (default) the first job failure raises.  When
            False, failed jobs yield ``None`` in ``results`` with the
            rendered exception in ``errors`` — the mode the serving
            registry uses, so one bad request cannot take down a batch.

    Returns:
        A :class:`ServiceReport` with per-call hit/miss/failure counters.
    """
    if config is None:
        # Imported lazily: eval is a higher layer that itself imports
        # runtime, so a module-level import would be circular.
        from ..eval.harness import ExperimentConfig

        config = ExperimentConfig()
    requests = tuple(requests)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    params = _config_params(config)
    started = time.perf_counter()
    report = ServiceReport(jobs=requests, n_workers=jobs)
    results: List[Optional[CharacterizationResult]] = [None] * len(requests)
    errors: List[Optional[str]] = [None] * len(requests)

    with tracing.span(
        "service.characterize_jobs", requests=len(requests), workers=jobs
    ):
        pending: List[Tuple[int, CharacterizationJob, Optional[str]]] = []
        for index, requested in enumerate(requests):
            job = _canonical_job(requested)
            key = None
            if cache is not None:
                key = cache.characterization_key(
                    job.kind, job.width, job.enhanced, config,
                    characterization_seed(
                        config.seed, job.width, job.enhanced, job.kind
                    ),
                )
                cached = cache.load_characterization(key)
                if cached is not None:
                    results[index] = cached
                    report.cache_hits += 1
                    continue
            pending.append((index, job, key))
        report.cache_misses = len(pending) if cache is not None else 0

        if pending:
            trace_ctx = tracing.current()
            if jobs == 1 or len(pending) == 1:
                computed = []
                for _, job, _ in pending:
                    try:
                        # Inline: spans land in the active context
                        # directly, no token round-trip needed.
                        result, _payload = _run_job(
                            job.kind, job.width, job.enhanced, params
                        )
                        computed.append(result)
                    except Exception as exc:
                        if strict:
                            raise
                        computed.append(exc)
            else:
                # Explicit cross-process handoff: contextvars do not
                # survive pickling, so each worker gets a token and ships
                # its span records back with the result.
                token = tracing.worker_token()
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))
                ) as pool:
                    futures = [
                        pool.submit(
                            _run_job, job.kind, job.width, job.enhanced,
                            params, token,
                        )
                        for _, job, _ in pending
                    ]
                    computed = []
                    for future in futures:
                        try:
                            result, payload = future.result()
                            if trace_ctx is not None:
                                trace_ctx.absorb(
                                    payload,
                                    parent=token.get("parent")
                                    if token else None,
                                )
                            computed.append(result)
                        except Exception as exc:
                            if strict:
                                raise
                            computed.append(exc)
            for (index, job, key), result in zip(pending, computed):
                if isinstance(result, Exception):
                    report.failures += 1
                    errors[index] = f"{type(result).__name__}: {result}"
                    continue
                results[index] = result
                if cache is not None and key is not None:
                    cache.store_characterization(
                        key, result,
                        meta={"kind": job.kind, "width": job.width,
                              "enhanced": job.enhanced},
                    )

    report.results = results
    report.errors = errors
    report.elapsed_seconds = time.perf_counter() - started
    return report
