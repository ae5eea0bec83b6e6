"""Micro-batching: coalesce trace estimations per model, one flush a tick.

Trace-based estimation of a short request is dominated by fixed Python
overhead (argument checking, classification setup), not by numpy work.
The :class:`MicroBatcher` therefore coalesces every ``estimate_bits``
request *for the same model* that arrives within one event-loop tick into
one :meth:`~repro.core.estimator.PowerEstimator.estimate_batch_from_bits`
call — a single vectorized classification pass whose per-request results
match direct calls to floating-point summation order (the batch API
drops the spurious boundary cycles, see the estimator docstring).

The first request queued for a model schedules that model's flush with
``loop.call_soon``; the flush runs inline on the next tick, so a lone
request waits for nothing and requests parsed in the same tick share one
pass.  There is no wait window, timer or executor: the estimate is a small
fraction of the JSON decode and bit validation the loop already does for
the same request.  A batch is bounded by the requests the server admits
(its ``max_queue``), since each connection has at most one in flight.
Flushes are counted by trigger: **tick** (the scheduled flush) or
**drain** (the server is shutting down).

Analytic endpoints (distribution / DBT statistics) never enter the queue:
they are O(m) dot products, so :meth:`estimate_distribution` and
:meth:`estimate_analytic` are direct fast paths.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.estimator import EstimationResult
from ..obs import tracing
from ..obs.events import EVENTS
from .metrics import ServeMetrics
from .registry import ServedModel
from .sessions import hd_distribution, operand_word_stats


class _ModelQueue:
    """Per-model requests waiting for the next tick's flush."""

    __slots__ = ("served", "bits", "futures")

    def __init__(self, served: ServedModel):
        self.served = served
        self.bits: List[np.ndarray] = []
        self.futures: List["asyncio.Future"] = []


class MicroBatcher:
    """Coalesces per-model trace estimations into vectorized batches.

    Args:
        metrics: Shared :class:`ServeMetrics`; a private set by default.
    """

    def __init__(self, metrics: Optional[ServeMetrics] = None):
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._queues: Dict[Tuple[str, int, bool, str], _ModelQueue] = {}

    # ------------------------------------------------------------------
    # Batched trace path
    # ------------------------------------------------------------------
    async def estimate_bits(
        self, served: ServedModel, bits: np.ndarray
    ) -> EstimationResult:
        """Queue one trace estimation; resolves on the next loop tick."""
        loop = asyncio.get_running_loop()
        key = (served.kind, served.width, served.enhanced, served.source)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _ModelQueue(served)
        if not queue.futures:
            # call_soon copies the caller's context, so the batch.flush
            # span lands in the first requester's trace, if any.
            loop.call_soon(self._flush, key, "tick")
        future = loop.create_future()
        queue.bits.append(bits)
        queue.futures.append(future)
        return await future

    def _flush(self, key: Tuple[str, int, bool, str], reason: str) -> None:
        queue = self._queues[key]
        if not queue.futures:
            return  # already flushed by drain()
        matrices, futures = queue.bits, queue.futures
        queue.bits, queue.futures = [], []
        self.metrics.batch_flush_total.inc(reason=reason)
        self.metrics.batch_size.observe(len(futures))
        try:
            with tracing.span(
                "batch.flush", model=queue.served.name, size=len(futures),
                reason=reason,
            ):
                results = queue.served.estimator.estimate_batch_from_bits(
                    matrices
                )
        except Exception as error:  # noqa: BLE001 — every waiter fails
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        EVENTS.batch_cycles.inc(sum(max(m.shape[0] - 1, 0)
                                    for m in matrices))
        EVENTS.batch_requests.inc(len(matrices))
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)

    # ------------------------------------------------------------------
    # Direct (analytic) fast paths — no queueing
    # ------------------------------------------------------------------
    def estimate_distribution(
        self, served: ServedModel, distribution: Sequence[float]
    ) -> EstimationResult:
        """Distribution-based estimation (Section 6.3): one dot product."""
        return served.estimator.estimate_from_distribution(
            hd_distribution(distribution)
        )

    def estimate_analytic(
        self,
        served: ServedModel,
        operand_stats: Sequence[Dict[str, float]],
        use_distribution: bool = True,
    ) -> EstimationResult:
        """Fully analytic estimation from (μ, σ², ρ) word statistics.

        Builds the Eq. 18 DBT Hamming-distance distribution per operand —
        no simulation, no bit patterns.
        """
        return served.estimator.estimate_analytic(
            served.module, operand_word_stats(operand_stats),
            use_distribution=use_distribution,
        )

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush every pending batch now (server shutdown)."""
        for key in list(self._queues):
            self._flush(key, "drain")

    @property
    def pending_requests(self) -> int:
        """Requests waiting for this tick's flush (0 between ticks)."""
        return sum(len(q.futures) for q in self._queues.values())


def streams_to_bits(
    module, words: Sequence[Sequence[int]]
) -> np.ndarray:
    """Pack per-operand signed word lists into the module bit matrix.

    Args:
        module: Target :class:`DatapathModule`.
        words: One list of signed integers per operand, equal lengths.

    Raises:
        ValueError: Wrong operand count, unequal lengths, or a word that
            is not an integer (floats are rejected, never truncated).
    """
    from ..signals.streams import PatternStream, module_stimulus

    if len(words) != module.n_operands:
        raise ValueError(
            f"{module.kind} has {module.n_operands} operands, "
            f"got {len(words)} word lists"
        )
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise ValueError("operand word lists must have equal lengths")
    arrays = [np.asarray(operand_words) for operand_words in words]
    if any(a.ndim != 1 or (a.size and a.dtype.kind not in "iu")
           for a in arrays):
        raise ValueError("operand words must be lists of integers")
    streams = [
        PatternStream(values.astype(np.int64), width, name=name)
        for (name, width), values in zip(module.operand_specs, arrays)
    ]
    return module_stimulus(module, streams)
