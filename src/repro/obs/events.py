"""Shared metric primitives and the process-global event-counter registry.

This module is the single home of the repository's metric data model —
:class:`Counter`, :class:`Gauge`, :class:`Histogram` and
:class:`MetricsRegistry` (all thread-safe, zero-dependency, rendered in
the Prometheus text exposition format).  The serving layer's
``repro.serve.metrics`` re-exports them; nothing else defines counters.

On top of the primitives sits :data:`EVENTS`, the **always-on** global
counter set: cheap monotonic counters incremented on the hot paths of
every subsystem — transitions simulated per engine, toggles counted,
classification passes, model-fit updates, persistent-cache hits/misses,
micro-batch sizes.  "Always-on" is a budget, not a slogan: every
increment is one dict update under an uncontended lock, placed at
call granularity (per simulate/classify/flush call, never per cycle),
so the cost disappears next to the numpy work it accounts for.

Consumers:

* ``repro.serve.metrics`` renders :data:`EVENTS` into ``/metrics`` after
  its own serve-local series — one registry, one page;
* the ``--profile`` CLI summary and :mod:`repro.obs.export` attach a
  counter snapshot to every trace artifact;
* tests assert on :func:`snapshot` **deltas**, never absolute values
  (the registry is process-global and other tests also feed it).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Latency buckets (seconds) sized for an in-process estimation service:
#: sub-millisecond fast paths up to multi-second characterization misses.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Batch-size buckets (requests per flush).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without trailing .0)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(label_names: Sequence[str], values: Tuple[str, ...]) -> str:
    if not label_names:
        return ""
    pairs = []
    for name, value in zip(label_names, values):
        escaped = (
            str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n")
        )
        pairs.append(f'{name}="{escaped}"')
    return "{" + ",".join(pairs) + "}"


class _Metric:
    """Shared name/help/label plumbing for all metric types."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if not labels and not self.label_names:
            return ()
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name, help_text, label_names=()):
        super().__init__(name, help_text, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def items(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Snapshot of every (label values, value) pair."""
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = self.header()
        items = self.items()
        for key, value in items:
            labels = _format_labels(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        if not items and not self.label_names:
            lines.append(f"{self.name} 0")
        return lines


class Gauge(_Metric):
    """Settable value (queue depth, in-flight requests)."""

    kind = "gauge"

    def __init__(self, name, help_text, label_names=()):
        super().__init__(name, help_text, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def set_series(
        self, series: Iterable[Tuple[Tuple[str, ...], float]]
    ) -> None:
        """Set several series under one lock, each keyed by its label
        values in ``label_names`` order.  The keys are not checked: this
        is for callers whose label set is fixed in code."""
        with self._lock:
            for key, value in series:
                self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def items(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = self.header()
        items = self.items()
        for key, value in items:
            labels = _format_labels(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        if not items and not self.label_names:
            lines.append(f"{self.name} 0")
        return lines


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus cumulative rendering."""

    kind = "histogram"

    def __init__(self, name, help_text, buckets: Sequence[float],
                 label_names=()):
        super().__init__(name, help_text, label_names)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)
        # Per label set: per-bucket counts (+1 overflow slot), sum, count.
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value

    def count(self, **labels: str) -> int:
        with self._lock:
            counts = self._counts.get(self._key(labels))
            return sum(counts) if counts else 0

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """Bucket upper-bound estimate of the q-quantile (for /healthz)."""
        with self._lock:
            counts = self._counts.get(self._key(labels))
            if not counts or sum(counts) == 0:
                return None
            target = q * sum(counts)
            running = 0
            for index, bucket_count in enumerate(counts):
                running += bucket_count
                if running >= target:
                    if index < len(self.buckets):
                        return self.buckets[index]
                    return float("inf")
        return None

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            items = sorted(self._counts.items())
            sums = dict(self._sums)
        for key, counts in items:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = _format_labels(
                    self.label_names + ("le",),
                    key + (_format_value(bound),),
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += counts[-1]
            labels = _format_labels(
                self.label_names + ("le",), key + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            base = _format_labels(self.label_names, key)
            lines.append(
                f"{self.name}_sum{base} {_format_value(sums[key])}"
            )
            lines.append(f"{self.name}_count{base} {cumulative}")
        return lines


class MetricsRegistry:
    """Ordered collection of metrics rendered as one /metrics page."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"duplicate metric {metric.name!r}")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help_text, label_names))

    def gauge(self, name: str, help_text: str,
              label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help_text, label_names))

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float],
                  label_names: Sequence[str] = ()) -> Histogram:
        return self._register(
            Histogram(name, help_text, buckets, label_names)
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full Prometheus text exposition page."""
        with self._lock:
            metrics: Iterable[_Metric] = list(self._metrics.values())
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{label="v"} -> value`` view of counters and gauges.

        Histograms contribute their observation counts as ``name_count``.
        Tests diff two snapshots instead of asserting absolute values,
        because the global registry accumulates across a whole process.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        flat: Dict[str, float] = {}
        for metric in metrics:
            if isinstance(metric, (Counter, Gauge)):
                for key, value in metric.items():
                    flat[metric.name + _format_labels(metric.label_names, key)] = value
            elif isinstance(metric, Histogram):
                with metric._lock:
                    for key, counts in metric._counts.items():
                        label = _format_labels(metric.label_names, key)
                        flat[f"{metric.name}_count{label}"] = float(sum(counts))
        return flat


class EventCounters:
    """The cross-subsystem always-on counter set (see module docstring).

    One instance per process normally (:data:`EVENTS`); tests may build
    private instances to assert in isolation.  Every series is prefixed
    ``repro_`` so a serving ``/metrics`` page can render them next to its
    ``serve_``-prefixed local series without collisions.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        r = self.registry
        # Simulation kernels (repro.circuit.power).
        self.sim_transitions = r.counter(
            "repro_sim_transitions_total",
            "Input transitions pushed through the reference simulator, "
            "by resolved engine.",
            ("engine",),
        )
        self.sim_toggles = r.counter(
            "repro_sim_toggles_total",
            "Net toggle events counted by the reference simulator.",
        )
        self.sim_seconds = r.counter(
            "repro_sim_seconds_total",
            "Wall-clock seconds spent inside PowerSimulator.simulate.",
        )
        # Bitwise-program compiler and executor (repro.circuit.program).
        self.program_compiles = r.counter(
            "repro_program_compiles_total",
            "Netlist-to-bitwise-program compilations (compiled engine).",
        )
        self.program_instructions = r.counter(
            "repro_program_instructions_total",
            "Instructions emitted by the bitwise-program compiler, by kind "
            "(op = fused (level, type) group, lut = folded cone group).",
            ("kind",),
        )
        self.program_steps = r.counter(
            "repro_program_steps_total",
            "Unit-delay relaxation steps executed by the compiled engine.",
        )
        self.program_evals = r.counter(
            "repro_program_evals_total",
            "Windowed group evaluations executed by the compiled engine "
            "(each covers one type block's still-active level suffix, so "
            "this is far below steps x groups x gates).",
        )
        # Switching-event classification (repro.core.events).
        self.classify_passes = r.counter(
            "repro_classify_passes_total",
            "classify_transitions calls (one vectorized pass each).",
        )
        self.classify_cycles = r.counter(
            "repro_classify_cycles_total",
            "Transitions classified into switching-event classes.",
        )
        # Model fitting (repro.core.accumulator / characterize).
        self.fit_updates = r.counter(
            "repro_fit_updates_total",
            "ClassAccumulator batch updates folded into class statistics.",
        )
        self.fit_samples = r.counter(
            "repro_fit_samples_total",
            "Classified transitions folded into class statistics.",
        )
        self.characterize_runs = r.counter(
            "repro_characterize_runs_total",
            "characterize_module calls completed.",
        )
        self.characterize_patterns = r.counter(
            "repro_characterize_patterns_total",
            "Stimulus patterns consumed by characterization runs.",
        )
        # Persistent model cache (repro.runtime.cache).
        self.cache_lookups = r.counter(
            "repro_cache_lookups_total",
            "Persistent-cache lookups by outcome (hit/miss).",
            ("result",),
        )
        self.cache_stores = r.counter(
            "repro_cache_stores_total",
            "Records written to the persistent cache.",
        )
        self.cache_quarantined = r.counter(
            "repro_cache_quarantined_total",
            "Corrupt cache records quarantined (renamed .corrupt).",
        )
        # Micro-batch estimation engine (repro.serve.batching).
        self.batch_requests = r.counter(
            "repro_batch_requests_total",
            "Estimation requests processed by the batch engine.",
        )
        self.batch_cycles = r.counter(
            "repro_batch_cycles_total",
            "Transition cycles classified by the batch engine.",
        )
        # Tracing subsystem itself.
        self.spans_recorded = r.counter(
            "repro_spans_recorded_total",
            "Trace spans recorded (zero unless a trace is active).",
        )

    def render(self) -> str:
        return self.registry.render()

    def snapshot(self) -> Dict[str, float]:
        return self.registry.snapshot()


#: The process-global always-on counters every subsystem feeds.
EVENTS = EventCounters()


def global_events() -> EventCounters:
    """The process-global :class:`EventCounters` instance."""
    return EVENTS


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Non-zero differences between two :meth:`snapshot` views."""
    changed = {}
    for name, value in after.items():
        diff = value - before.get(name, 0.0)
        if diff:
            changed[name] = diff
    return changed
