"""Online estimation serving layer.

The paper's economics — characterize once, then answer power queries with
Hd-class lookups and analytic DBT statistics — make estimation ideal for a
high-throughput service.  This package is that service (docs/SERVING.md):

* :mod:`registry` — lazy, single-flight model materialization backed by
  the persistent :class:`~repro.runtime.cache.ModelCache`, with the
  Section-5 width regression serving never-characterized widths;
* :mod:`batching` — micro-batching of concurrent trace estimations into
  single vectorized passes, plus direct analytic fast paths;
* :mod:`server` — the asyncio JSON-over-HTTP front-end with bounded
  queues, 429 backpressure, deadlines and graceful drain;
* :mod:`metrics` — process-local counters/histograms exported at
  ``/metrics`` in Prometheus text format;
* :mod:`warmup` — warmup manifests pre-materializing the model tier
  before traffic (``repro-power warmup``);
* :mod:`fleet` — the multi-process supervisor: N ``SO_REUSEPORT``
  workers on one port with fleet-wide aggregated metrics
  (``repro-power serve --workers N``);
* :mod:`sessions` — long-lived streaming estimation sessions: chunked
  appends over keep-alive connections with running estimates, TTL
  eviction, budgets and drain-surviving snapshots
  (``POST /v1/sessions`` …, ``Session.stream``).
"""

from .batching import DEFAULT_MAX_BATCH, DEFAULT_MAX_WAIT, MicroBatcher
from .fleet import FleetMetricsServer, ServeFleet, WorkerSpec
from .metrics import (
    MetricsRegistry,
    ServeMetrics,
    aggregate_expositions,
    inject_label,
)
from .registry import (
    DEFAULT_PROTOTYPE_WIDTHS,
    CharacterizationFailed,
    ModelRegistry,
    RegistryError,
    ServedModel,
    UnknownKindError,
)
from .server import EstimationServer, ServerThread
from .sessions import (
    RunningEstimate,
    SessionBudgetError,
    SessionStore,
    StreamingEstimator,
    UnknownSessionError,
    WrongWorkerError,
)
from .warmup import (
    DEFAULT_WIDTH_SWEEP,
    MANIFEST_VERSION,
    WarmupEntry,
    WarmupManifest,
    WarmupReport,
    default_manifest,
    warm_registry,
)

__all__ = [
    "CharacterizationFailed",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_WAIT",
    "DEFAULT_PROTOTYPE_WIDTHS",
    "DEFAULT_WIDTH_SWEEP",
    "EstimationServer",
    "FleetMetricsServer",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelRegistry",
    "RegistryError",
    "RunningEstimate",
    "ServeFleet",
    "ServeMetrics",
    "ServedModel",
    "ServerThread",
    "SessionBudgetError",
    "SessionStore",
    "StreamingEstimator",
    "UnknownKindError",
    "UnknownSessionError",
    "WrongWorkerError",
    "WarmupEntry",
    "WarmupManifest",
    "WarmupReport",
    "WorkerSpec",
    "aggregate_expositions",
    "default_manifest",
    "inject_label",
    "warm_registry",
]
