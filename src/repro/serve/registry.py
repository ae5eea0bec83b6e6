"""Model registry: lazily materialized, single-flight, cache-backed.

The registry is the serving layer's answer to "which fitted model handles
this request?".  Resolution order for ``(kind, width, enhanced)``:

1. **memory** — models already materialized this process;
2. **cache** — the persistent :class:`~repro.runtime.cache.ModelCache`
   (characterize-once/evaluate-many: a warm cache costs zero simulator
   cycles);
3. **characterize** — on-demand characterization through
   :func:`~repro.runtime.service.characterize_jobs`, for widths up to
   ``max_exact_width``;
4. **regress** — for larger widths, the Section-5 parameterization
   (Eq. 6-10): characterize a small prototype set, fit the complexity
   regression, and predict the coefficients of the requested width.  This
   is what makes the family *parameterizable* — a 64-bit multiplier is
   servable without ever simulating one.

Concurrent misses for the same key are **single-flight deduplicated**: the
first caller characterizes, every concurrent caller for the same key
blocks on the leader's result instead of launching a duplicate simulation.
A *failed* leader never poisons the key: its in-flight slot is removed
under the lock before the error propagates, and every waiting follower
retries from scratch (one of them becomes the next leader) instead of
re-raising the stale error or hanging.  The registry is thread-safe: the
asyncio server answers resident models on its event loop through
:meth:`ModelRegistry.lookup` and loads misses on executor threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.estimator import PowerEstimator
from ..core.regression import fit_width_regression
from ..modules.library import MODULE_KINDS, DatapathModule, make_module
from ..modules.spec import UnknownModuleError, canonical_kind
from ..obs.tracing import span
from ..runtime.cache import ModelCache
from ..runtime.service import CharacterizationJob, characterize_jobs
from .metrics import ServeMetrics

#: Prototype operand widths used to fit the width regression when a
#: requested width exceeds ``max_exact_width``.  Small on purpose: the
#: whole point of Eq. 6-10 is predicting big instances from cheap ones.
DEFAULT_PROTOTYPE_WIDTHS: Tuple[int, ...] = (4, 6, 8)


class RegistryError(Exception):
    """A request the registry cannot serve (maps to an HTTP 4xx)."""


class UnknownKindError(RegistryError):
    """Module kind not in the component library (HTTP 404)."""


class CharacterizationFailed(RegistryError):
    """On-demand characterization raised (HTTP 500 at the server)."""


@dataclass(frozen=True)
class ServedModel:
    """A materialized model plus everything estimation endpoints need.

    Attributes:
        kind: Module registry kind.
        width: Operand width.
        enhanced: Whether the estimator carries the enhanced model.
        module: The datapath module (operand specs for streams/analytic).
        estimator: Ready-to-call :class:`PowerEstimator`.
        source: ``"cache"``, ``"characterized"`` or ``"regressed"`` — how
            the model was first materialized.
    """

    kind: str
    width: int
    enhanced: bool
    module: DatapathModule
    estimator: PowerEstimator
    source: str

    @property
    def name(self) -> str:
        suffix = "+enhanced" if self.enhanced else ""
        return f"{self.kind}/{self.width}{suffix}"


@dataclass
class _InFlight:
    """Single-flight slot: followers wait on the leader's event."""

    event: threading.Event = field(default_factory=threading.Event)
    model: Optional[ServedModel] = None
    error: Optional[BaseException] = None


class ModelRegistry:
    """Thread-safe model materialization with single-flight dedup.

    Args:
        config: Characterization provenance (an
            :class:`~repro.eval.harness.ExperimentConfig`); defaults to the
            stock configuration.  Keys the persistent cache.
        cache: Persistent model cache; ``None`` disables disk caching (every
            cold lookup characterizes).
        metrics: Shared :class:`ServeMetrics`; a private set by default.
        max_exact_width: Widths up to this are characterized exactly on a
            miss; larger widths are served from the width regression.
        prototype_widths: Prototype set for the regression fit.
    """

    def __init__(
        self,
        config: Any = None,
        cache: Optional[ModelCache] = None,
        metrics: Optional[ServeMetrics] = None,
        max_exact_width: int = 16,
        prototype_widths: Tuple[int, ...] = DEFAULT_PROTOTYPE_WIDTHS,
    ):
        if config is None:
            from ..eval.harness import ExperimentConfig

            config = ExperimentConfig()
        if not prototype_widths:
            raise ValueError("need at least one prototype width")
        self.config = config
        self.cache = cache
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.max_exact_width = int(max_exact_width)
        self.prototype_widths = tuple(sorted(set(prototype_widths)))
        self._models: Dict[Tuple[str, int, bool, str], ServedModel] = {}
        self._inflight: Dict[Tuple[str, int, bool, str], _InFlight] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def canonicalize(self, kind: str, width: int) -> str:
        """Canonical kind string for a request (registry error mapping).

        Bare kinds pass through byte-identically; variant specs come back
        defaults-filled, name-sorted and degenerate-collapsed, so every
        spelling of the same model shares one single-flight key and one
        cache entry.  Unknown families keep the legacy
        :class:`UnknownKindError` message; bad variant parameters carry
        the detailed message.
        """
        entry = MODULE_KINDS.get(kind)
        if entry is not None and not entry.params:
            return kind  # fast path: plain kinds are their own canonical
        # Bare variant family names still canonicalize (defaults fill
        # in), or every spelling of the default model would get its own
        # single-flight slot and cache entry.
        try:
            return canonical_kind(kind, int(width))
        except UnknownModuleError as exc:
            if exc.family_unknown:
                raise UnknownKindError(
                    f"unknown module kind {kind!r}"
                ) from None
            raise UnknownKindError(str(exc)) from None
        except ValueError as exc:
            raise UnknownKindError(str(exc)) from None

    def resolve_mode(self, kind: str, width: int, mode: str = "auto") -> str:
        """Map a requested mode to ``"exact"`` or ``"regressed"``."""
        if kind not in MODULE_KINDS:
            self.canonicalize(kind, width)  # raises for unknown specs
        if mode not in ("auto", "exact", "regressed"):
            raise RegistryError(
                f"mode must be auto/exact/regressed, got {mode!r}"
            )
        if width < 1:
            raise RegistryError("width must be >= 1")
        if mode == "auto":
            return "exact" if width <= self.max_exact_width else "regressed"
        return mode

    def _key(
        self, kind: str, width: int, enhanced: bool, mode: str
    ) -> Tuple[str, int, bool, str]:
        """The registry key of a request; raises the request's 4xx errors."""
        if width >= 1:
            kind = self.canonicalize(kind, width)
        resolved = self.resolve_mode(kind, width, mode)
        if resolved == "regressed" and enhanced:
            raise RegistryError(
                "the width regression parameterizes basic models only; "
                "request enhanced=false or an exact width"
            )
        return kind, int(width), bool(enhanced), resolved

    def lookup(
        self,
        kind: str,
        width: int,
        enhanced: bool = False,
        mode: str = "auto",
    ) -> Optional[ServedModel]:
        """The resident model for this request, or ``None`` on a miss.

        Never loads: it takes only the lock, so the server calls it on
        the event loop and sends just the misses to :meth:`get` on a
        load thread.  Raises the same errors as :meth:`get`.
        """
        key = self._key(kind, width, enhanced, mode)
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self.metrics.registry_lookups_total.inc(result="memory")
            return model

    def get(
        self,
        kind: str,
        width: int,
        enhanced: bool = False,
        mode: str = "auto",
    ) -> ServedModel:
        """Materialize (or fetch) the model serving this request.

        Blocking; safe to call from many threads at once.  Exactly one
        caller per distinct key does the expensive work.
        """
        key = self._key(kind, width, enhanced, mode)
        kind, width, enhanced, resolved = key
        while True:
            with self._lock:
                model = self._models.get(key)
                if model is not None:
                    self.metrics.registry_lookups_total.inc(result="memory")
                    return model
                slot = self._inflight.get(key)
                if slot is None:
                    slot = _InFlight()
                    self._inflight[key] = slot
                    break  # this thread leads the load
            # Single-flight follower: the wait is worth a span of its own
            # — coalesced time is latency the leader's load imposes.
            with span("registry.coalesce", key="/".join(map(str, key))):
                self.metrics.registry_coalesced_total.inc()
                slot.event.wait()
            if slot.error is None:
                assert slot.model is not None
                return slot.model
            # The leader failed.  Its slot is already gone from
            # _inflight (removed under the lock before the event was
            # set), so loop and retry: either a newer leader is already
            # loading, or this thread claims leadership and gets a fresh
            # attempt instead of a stale error.

        started = time.perf_counter()
        try:
            with span(
                "registry.materialize",
                key="/".join(map(str, key)), mode=resolved,
            ):
                if resolved == "exact":
                    model = self._materialize_exact(kind, width, enhanced)
                else:
                    model = self._materialize_regressed(kind, width)
        except BaseException as exc:
            slot.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            slot.event.set()
            raise
        with self._lock:
            self._models[key] = model
            self._inflight.pop(key, None)
            self.metrics.registry_models.set(len(self._models))
        self.metrics.registry_load_seconds.observe(
            time.perf_counter() - started
        )
        slot.model = model
        slot.event.set()
        return model

    # ------------------------------------------------------------------
    def _materialize_exact(
        self, kind: str, width: int, enhanced: bool
    ) -> ServedModel:
        job = CharacterizationJob(kind=kind, width=width, enhanced=enhanced)
        report = characterize_jobs(
            [job], config=self.config, jobs=1, cache=self.cache,
            strict=False,
        )
        result = report.results[0]
        if result is None:
            raise CharacterizationFailed(
                f"characterization of {job.label} failed: "
                f"{report.errors[0]}"
            )
        source = "cache" if report.cache_hits else "characterized"
        self.metrics.registry_lookups_total.inc(result=source)
        module = make_module(kind, width)
        estimator = PowerEstimator(
            result.model,
            enhanced=result.enhanced if enhanced else None,
        )
        return ServedModel(
            kind=kind, width=width, enhanced=enhanced,
            module=module, estimator=estimator, source=source,
        )

    def _materialize_regressed(self, kind: str, width: int) -> ServedModel:
        prototypes = {}
        for proto_width in self.prototype_widths:
            served = self.get(kind, proto_width, enhanced=False, mode="exact")
            prototypes[proto_width] = served.estimator.model
        regression = fit_width_regression(kind, prototypes)
        module = make_module(kind, width)
        model = regression.predict_model(width, module.input_bits)
        self.metrics.registry_lookups_total.inc(result="regressed")
        return ServedModel(
            kind=kind, width=width, enhanced=False,
            module=module, estimator=PowerEstimator(model),
            source="regressed",
        )

    # ------------------------------------------------------------------
    def loaded(self) -> List[Dict[str, Any]]:
        """Listing of resident models (the ``/v1/models`` payload)."""
        with self._lock:
            models = list(self._models.values())
        return [
            {
                "kind": m.kind,
                "width": m.width,
                "enhanced": m.enhanced,
                "source": m.source,
                "input_bits": m.module.input_bits,
                "model": m.estimator.model.name,
            }
            for m in sorted(
                models, key=lambda m: (m.kind, m.width, m.enhanced)
            )
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)
