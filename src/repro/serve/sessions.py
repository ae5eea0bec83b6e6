"""Streaming estimation sessions: running estimates over unbounded traces.

The offline contract is characterize-once/evaluate-many over a *fixed*
stimulus; ROADMAP item 3 opens the live-monitoring workload the paper's
setting never had: a client feeds an unbounded input trace in segments and
reads a running charge/power estimate after every one.  Two pieces:

* :class:`StreamingEstimator` — the incremental core.  It carries the
  previous segment's last input row so the *seam* transition between
  segments is classified exactly like the offline concatenation would
  classify it, predicts per-cycle charges through the served model (a
  pure per-class lookup) and folds them into a
  :class:`~repro.core.accumulator.ClassAccumulator`.  The running average
  therefore equals the offline one-shot
  :meth:`~repro.core.estimator.PowerEstimator.estimate_from_bits` on the
  concatenated trace up to float addition order (≪ 1e-12 relative — far
  inside the serving layer's 1e-9 parity contract).  State is O(width²)
  no matter how many rows stream through.
* :class:`SessionStore` — the lifecycle around it: create/append/finalize,
  TTL eviction, session-count and per-session row budgets (mapped to 429
  by the server), and a bit-exact :meth:`SessionStore.snapshot` /
  :meth:`SessionStore.restore` pair so open sessions survive a worker
  drain.

Worker stickiness: session ids embed the owning worker id
(``s<worker>-<token>``).  Under a ``SO_REUSEPORT`` fleet a keep-alive
connection stays on one worker (the kernel hashes the connection 4-tuple),
so a client that keeps its connection open never notices; a new
connection that lands on the wrong worker gets a clean reject with a
redirect hint instead of a 5xx (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import math
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.accumulator import ClassAccumulator
from ..core.events import classify_transitions
from ..obs.tracing import span
from ..stats.wordstats import WordStats
from .registry import ServedModel

__all__ = [
    "RunningEstimate",
    "SessionBudgetError",
    "SessionError",
    "SessionStore",
    "StreamingEstimator",
    "UnknownSessionError",
    "WrongWorkerError",
    "bit_matrix",
    "hd_distribution",
    "operand_word_stats",
    "parse_session_worker",
]

#: Default lifecycle knobs (the server/CLI expose overrides).
DEFAULT_TTL_SECONDS = 600.0
DEFAULT_MAX_SESSIONS = 64
DEFAULT_MAX_SESSION_ROWS = 4_000_000


class SessionError(Exception):
    """Base class for session-layer failures."""


class UnknownSessionError(SessionError, KeyError):
    """No such session (never created, expired, or already finalized)."""


class WrongWorkerError(SessionError):
    """The session lives on another fleet worker.

    Attributes:
        owner_worker: The worker id embedded in the session id — the
            redirect hint the server surfaces in ``X-Repro-Owner-Worker``.
    """

    def __init__(self, session_id: str, owner_worker: int, this_worker: int):
        super().__init__(
            f"session {session_id} is owned by worker {owner_worker}, not "
            f"worker {this_worker}; sessions are connection-sticky — reuse "
            f"the connection that created the session (or reconnect until "
            f"the kernel hashes you onto worker {owner_worker})"
        )
        self.owner_worker = owner_worker
        self.this_worker = this_worker


class SessionBudgetError(SessionError):
    """A session-count or row budget would be exceeded (HTTP 429)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class RunningEstimate:
    """The running state of one streaming session, after some appends.

    Attributes:
        session_id: Store-assigned id (empty for bare facade handles).
        model: ``kind/width[+enhanced]`` label of the serving model.
        source: How the model materialized (``cache``/``characterized``/…).
        n_rows: Input rows consumed so far (across every segment).
        n_transitions: Transitions classified so far (``n_rows - 1`` once
            at least two rows have arrived; seam transitions included).
        total_charge: Sum of per-cycle predicted charges.
        average_charge: Running mean cycle charge — equals the offline
            one-shot estimate on the concatenated trace to ≪ 1e-9.
        self_checked_transitions: Transitions re-verified against the
            per-gate oracle so far (0 unless ``self_check`` is on).
        physical: Physical-unit block (``repro.tech`` calibration) for
            sessions opened with a node/voltage; ``None`` otherwise —
            and then absent from the wire dict, keeping node-less
            sessions byte-identical to the pre-calibration protocol.
    """

    session_id: str
    model: str
    source: str
    n_rows: int
    n_transitions: int
    total_charge: float
    average_charge: float
    self_checked_transitions: int = 0
    physical: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        body = {
            "session_id": self.session_id,
            "model": self.model,
            "source": self.source,
            "n_rows": self.n_rows,
            "n_transitions": self.n_transitions,
            "total_charge": self.total_charge,
            "average_charge": self.average_charge,
            "self_checked_transitions": self.self_checked_transitions,
        }
        if self.physical is not None:
            body["physical"] = self.physical
        return body


def bit_matrix(bits: Any, width: int) -> np.ndarray:
    """The ``[n, width]`` 0/1 input matrix as bool; ``ValueError`` for a
    wrong shape or any other entry (empty input gives ``[0, width]``).

    A bool ``[n, width]`` array is already that matrix and comes back
    as it is, so validating a segment twice costs nothing the second
    time.
    """
    if (isinstance(bits, np.ndarray) and bits.dtype == bool
            and bits.ndim == 2 and bits.shape[1] == width):
        return bits
    matrix = np.asarray(bits)
    if matrix.ndim == 1 and matrix.size == 0:
        return np.zeros((0, width), dtype=bool)
    if matrix.ndim != 2 or matrix.shape[1] != width:
        raise ValueError(
            f"bits must be an [n, {width}] 0/1 matrix, got "
            f"shape {matrix.shape}"
        )
    if (matrix.dtype.kind not in "biuf"
            or not ((matrix == 0) | (matrix == 1)).all()):
        raise ValueError("bit matrix entries must be 0/1")
    return matrix.astype(bool)


def hd_distribution(distribution: Any) -> np.ndarray:
    """A Hamming-distance pmf as float64; ``ValueError`` unless it is 1-D
    with finite entries >= 0 summing to 1 within 1e-6 (the model checks
    its length)."""
    pmf = np.asarray(distribution, dtype=np.float64)
    if pmf.ndim != 1 or not np.isfinite(pmf).all() or (pmf < 0).any():
        raise ValueError(
            "distribution must be a list of finite probabilities >= 0"
        )
    total = float(pmf.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distribution must sum to 1, got {total:.6g}")
    return pmf


def operand_word_stats(operand_stats: Sequence[Any]) -> List[WordStats]:
    """Per-operand :class:`WordStats` from instances or
    ``{mean, variance, rho}`` mappings; ``ValueError`` unless the mean is
    finite, the variance finite and >= 0, and ``|rho| <= 1``."""
    stats = []
    for item in operand_stats:
        if not isinstance(item, WordStats):
            item = WordStats(
                mean=float(item["mean"]),
                variance=float(item["variance"]),
                rho=float(item.get("rho", 0.0)),
            )
        if not (math.isfinite(item.mean) and math.isfinite(item.variance)
                and item.variance >= 0 and abs(item.rho) <= 1):
            raise ValueError(
                "operand statistics need a finite mean, a finite variance "
                f">= 0 and |rho| <= 1, got {item}"
            )
        stats.append(item)
    return stats


class StreamingEstimator:
    """Incremental trace estimation with exact segment-seam accounting.

    Args:
        served: The materialized model to estimate through.
        self_check: Re-simulate a prefix of every appended segment
            (seam row included) and cross-check it against the pure-Python
            oracle via :func:`~repro.verify.oracles.verify_trace_prefix`.
            Expensive; a per-session opt-in.
        check_prefix: Transitions per append the self-check re-simulates.
        session_id: Label carried into :class:`RunningEstimate` (set by
            the store; empty for direct facade use).
        calibration: Optional :class:`~repro.tech.Calibration`; when set
            (and not the identity) every :class:`RunningEstimate` carries
            a ``physical`` unit block alongside the normalized figures.
            Purely post-hoc — accumulator state and parity contracts are
            untouched.
    """

    def __init__(
        self,
        served: ServedModel,
        self_check: bool = False,
        check_prefix: int = 8,
        session_id: str = "",
        calibration: Any = None,
    ):
        self.served = served
        self.width = served.module.input_bits
        self.accumulator = ClassAccumulator(self.width)
        self.last_row: Optional[np.ndarray] = None
        self.n_rows = 0
        self.self_check = bool(self_check)
        self.check_prefix = int(check_prefix)
        self.self_checked_transitions = 0
        self.session_id = session_id
        self.calibration = calibration

    # ------------------------------------------------------------------
    def append(self, bits: Any) -> RunningEstimate:
        """Fold one trace segment in; return the updated running estimate.

        ``bits`` is an ``[n, input_bits]`` 0/1 matrix.  Zero-row and
        single-row segments are legal: the transition between the previous
        segment's last row and this segment's first row is always
        accounted (that is the seam the concatenation metamorphic relation
        pins), so streaming row-by-row gives the same answer as one shot.
        """
        segment = bit_matrix(bits, self.width)
        block = segment
        if self.last_row is not None and segment.shape[0]:
            block = np.concatenate([self.last_row[None, :], segment])
        if block.shape[0] >= 2:
            with span(
                "session.append",
                session=self.session_id, rows=int(segment.shape[0]),
            ):
                events = classify_transitions(block)
                estimator = self.served.estimator
                if estimator.enhanced is not None:
                    cycle = estimator.enhanced.predict_cycle(
                        events.hd, events.stable_zeros
                    )
                else:
                    cycle = estimator.model.predict_cycle(events.hd)
                self.accumulator.update(
                    events.hd, events.stable_zeros, cycle
                )
                if self.self_check:
                    self._self_check(block)
        if segment.shape[0]:
            self.last_row = segment[-1].copy()
        self.n_rows += int(segment.shape[0])
        return self.estimate()

    #: Facade alias: ``handle.feed(segment)`` reads naturally in a loop.
    feed = append

    def estimate(self) -> RunningEstimate:
        """The running estimate (cheap: two accumulator reductions)."""
        physical = None
        if self.calibration is not None:
            physical = self.calibration.physical_block(
                self.accumulator.average_charge,
                netlist=self.served.module,
            )
        return RunningEstimate(
            session_id=self.session_id,
            model=self.served.name,
            source=self.served.source,
            n_rows=self.n_rows,
            n_transitions=self.accumulator.n_samples,
            total_charge=float(self.accumulator.sums.sum()),
            average_charge=self.accumulator.average_charge,
            self_checked_transitions=self.self_checked_transitions,
            physical=physical,
        )

    #: Finalize is an estimate read; the *store* handles removal.
    finalize = estimate

    # ------------------------------------------------------------------
    def _self_check(self, block: np.ndarray) -> None:
        """Oracle cross-check of this append's transitions (seam included)."""
        from ..circuit.power import PowerSimulator
        from ..verify.oracles import verify_trace_prefix

        head = block[: self.check_prefix + 1]
        trace = PowerSimulator(self.served.module.compiled).simulate(head)
        self.self_checked_transitions += verify_trace_prefix(
            self.served.module.netlist, head, trace,
            prefix=self.check_prefix,
        )

    # ------------------------------------------------------------------
    # Drain survival: bit-exact state capture
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible, bit-exact state (model resolved on restore)."""
        state = {
            "kind": self.served.kind,
            "width": self.served.width,
            "enhanced": self.served.enhanced,
            "self_check": self.self_check,
            "check_prefix": self.check_prefix,
            "session_id": self.session_id,
            "n_rows": self.n_rows,
            "self_checked_transitions": self.self_checked_transitions,
            "last_row": (
                None if self.last_row is None
                else [int(b) for b in self.last_row]
            ),
            "accumulator": self.accumulator.snapshot(),
        }
        if self.calibration is not None:
            state["calibration"] = self.calibration.to_dict()
        return state

    @classmethod
    def restore(
        cls, data: Dict[str, Any], served: ServedModel
    ) -> "StreamingEstimator":
        calibration = None
        if data.get("calibration") is not None:
            from ..tech import Calibration

            calibration = Calibration.from_dict(data["calibration"])
        stream = cls(
            served,
            self_check=bool(data.get("self_check", False)),
            check_prefix=int(data.get("check_prefix", 8)),
            session_id=str(data.get("session_id", "")),
            calibration=calibration,
        )
        stream.accumulator = ClassAccumulator.restore(data["accumulator"])
        if stream.accumulator.width != stream.width:
            raise ValueError(
                f"snapshot accumulator width {stream.accumulator.width} "
                f"does not match model input bits {stream.width}"
            )
        stream.n_rows = int(data["n_rows"])
        stream.self_checked_transitions = int(
            data.get("self_checked_transitions", 0)
        )
        last_row = data.get("last_row")
        if last_row is not None:
            stream.last_row = np.asarray(last_row, dtype=bool)
        return stream


def parse_session_worker(session_id: str) -> Optional[int]:
    """The worker id embedded in a store-issued session id, or ``None``."""
    if not session_id.startswith("s"):
        return None
    head = session_id[1:].split("-", 1)[0]
    return int(head) if head.isdigit() else None


@dataclass
class _SessionSlot:
    stream: StreamingEstimator
    lock: threading.Lock
    created: float
    touched: float


class SessionStore:
    """Per-session accumulator state with TTL, budgets and drain survival.

    Thread-safe: the asyncio server appends to plain sessions on its
    event loop, and creates sessions and serves self-check sessions on
    load threads.  A per-session lock serializes appends to one session
    while different sessions proceed concurrently.

    Args:
        resolver: ``(kind, width, enhanced, mode) -> ServedModel`` — a
            :meth:`~repro.serve.registry.ModelRegistry.get` bound method
            in production; tests and the fuzzer inject synthetic models.
        worker_id: Fleet worker id embedded in session ids (0 for a
            single-process server).
        max_sessions: Session-count budget; creating past it raises
            :class:`SessionBudgetError` (HTTP 429).
        max_session_rows: Lifetime row budget per session; appends past
            it raise :class:`SessionBudgetError` (HTTP 429).
        ttl_seconds: Idle expiry — sessions untouched this long are
            evicted on the next store operation (or explicit ``sweep``).
        clock: Monotonic time source (injectable for the TTL tests).
        on_evict: Optional callback ``(session_id, reason)`` for metrics.
    """

    def __init__(
        self,
        resolver: Callable[..., ServedModel],
        worker_id: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        max_session_rows: int = DEFAULT_MAX_SESSION_ROWS,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Optional[Callable[[str, str], None]] = None,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if max_session_rows < 1:
            raise ValueError("max_session_rows must be >= 1")
        self.resolver = resolver
        self.worker_id = int(worker_id)
        self.max_sessions = int(max_sessions)
        self.max_session_rows = int(max_session_rows)
        self.ttl_seconds = float(ttl_seconds)
        self.clock = clock
        self.on_evict = on_evict
        self._sessions: Dict[str, _SessionSlot] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        kind: str,
        width: int,
        enhanced: bool = False,
        mode: str = "auto",
        self_check: bool = False,
        check_prefix: int = 8,
        calibration: Any = None,
    ) -> RunningEstimate:
        """Open a session; returns its (empty) running estimate."""
        self.sweep()
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise SessionBudgetError(
                    "session_budget",
                    f"session budget {self.max_sessions} reached; finalize "
                    f"(DELETE) or let idle sessions expire",
                )
        served = self.resolver(kind, int(width), enhanced, mode)
        session_id = f"s{self.worker_id}-{secrets.token_hex(6)}"
        stream = StreamingEstimator(
            served, self_check=self_check, check_prefix=check_prefix,
            session_id=session_id, calibration=calibration,
        )
        now = self.clock()
        slot = _SessionSlot(
            stream=stream, lock=threading.Lock(), created=now, touched=now
        )
        with self._lock:
            # Re-check under the lock: a racing create may have filled the
            # last slot while the model materialized.
            if len(self._sessions) >= self.max_sessions:
                raise SessionBudgetError(
                    "session_budget",
                    f"session budget {self.max_sessions} reached; finalize "
                    f"(DELETE) or let idle sessions expire",
                )
            self._sessions[session_id] = slot
        return stream.estimate()

    def append(self, session_id: str, bits: Any) -> RunningEstimate:
        """Feed one segment into a session; returns the running estimate."""
        slot = self._slot(session_id)
        with slot.lock:
            with span("session.parse"):
                bits = bit_matrix(bits, slot.stream.width)
            n_new = bits.shape[0]
            if slot.stream.n_rows + n_new > self.max_session_rows:
                raise SessionBudgetError(
                    "session_rows_budget",
                    f"session row budget {self.max_session_rows} reached "
                    f"({slot.stream.n_rows} rows consumed); finalize and "
                    f"open a new session",
                )
            estimate = slot.stream.append(bits)
            slot.touched = self.clock()
            return estimate

    def get(self, session_id: str) -> RunningEstimate:
        """The running estimate, without consuming anything."""
        slot = self._slot(session_id)
        with slot.lock:
            slot.touched = self.clock()
            return slot.stream.estimate()

    def finalize(self, session_id: str) -> RunningEstimate:
        """Close a session; returns its final estimate."""
        slot = self._slot(session_id)
        with self._lock:
            self._sessions.pop(session_id, None)
        with slot.lock:
            return slot.stream.estimate()

    # ------------------------------------------------------------------
    # Expiry / introspection
    # ------------------------------------------------------------------
    def sweep(self) -> List[str]:
        """Evict idle sessions past the TTL; returns the evicted ids."""
        now = self.clock()
        evicted: List[str] = []
        with self._lock:
            for session_id, slot in list(self._sessions.items()):
                if now - slot.touched > self.ttl_seconds:
                    del self._sessions[session_id]
                    evicted.append(session_id)
        for session_id in evicted:
            if self.on_evict is not None:
                self.on_evict(session_id, "ttl")
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def self_checking(self, session_id: str) -> bool:
        """Whether an open session re-simulates its appends against the
        gate-level oracle (False for an unknown id, whose operations
        fail fast)."""
        with self._lock:
            slot = self._sessions.get(session_id)
        return slot is not None and slot.stream.self_check

    def stats(self) -> Dict[str, Any]:
        """Store rollup for ``/healthz``."""
        with self._lock:
            slots = list(self._sessions.values())
        return {
            "open": len(slots),
            "max_sessions": self.max_sessions,
            "ttl_seconds": self.ttl_seconds,
            "total_rows": sum(s.stream.n_rows for s in slots),
            "total_transitions": sum(
                s.stream.accumulator.n_samples for s in slots
            ),
        }

    def _slot(self, session_id: str) -> _SessionSlot:
        self.sweep()
        with self._lock:
            slot = self._sessions.get(session_id)
        if slot is not None:
            return slot
        owner = parse_session_worker(session_id)
        if owner is not None and owner != self.worker_id:
            raise WrongWorkerError(session_id, owner, self.worker_id)
        raise UnknownSessionError(
            f"unknown session {session_id!r} (never created, expired, or "
            f"already finalized)"
        )

    # ------------------------------------------------------------------
    # Drain survival
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Bit-exact capture of every open session (JSON-compatible)."""
        with self._lock:
            slots = dict(self._sessions)
        sessions = {}
        for session_id, slot in slots.items():
            with slot.lock:
                sessions[session_id] = {
                    "state": slot.stream.snapshot(),
                    "age_seconds": self.clock() - slot.created,
                }
        return {"version": 1, "worker_id": self.worker_id,
                "sessions": sessions}

    def restore(self, data: Dict[str, Any]) -> int:
        """Re-open sessions from a :meth:`snapshot`; returns the count.

        Models are re-resolved through the store's resolver (a registry
        hit for anything the drained worker had materialized).  Restored
        sessions keep their ids, so clients resume with the handles they
        already hold; the accumulator state round-trips bit-exactly.
        """
        restored = 0
        now = self.clock()
        for session_id, entry in data.get("sessions", {}).items():
            state = entry["state"]
            served = self.resolver(
                state["kind"], int(state["width"]),
                bool(state.get("enhanced", False)), "auto",
            )
            stream = StreamingEstimator.restore(state, served)
            stream.session_id = session_id
            slot = _SessionSlot(
                stream=stream, lock=threading.Lock(),
                created=now, touched=now,
            )
            with self._lock:
                if len(self._sessions) >= self.max_sessions:
                    break
                self._sessions[session_id] = slot
            restored += 1
        return restored
