"""Switched-capacitance power simulation (the PowerMill surrogate).

:class:`PowerSimulator` turns a stream of input vectors into a per-cycle
charge trace: for every consecutive vector pair ``(u, v)`` the circuit is
settled under ``u`` (zero delay), then relaxed to ``v`` with the glitch-aware
unit-delay engine, and the cycle charge is the capacitance-weighted toggle
count.  Charge units are normalized (gate-capacitance units); the paper only
ever compares relative errors against the reference simulator, never absolute
numbers across tools.

Two interchangeable kernels produce the trace (see docs/SIMULATION.md):

* ``engine="compiled"`` — the production kernel: the straight-line
  instruction tape of :mod:`repro.circuit.program` over bit-packed lanes
  (64 transitions per ``uint64`` word, :mod:`repro.circuit.packed`), with
  fused (level, type) instructions and event-driven relaxation;
* ``engine="bool"`` — the readable reference: byte-per-value matrices of
  :mod:`repro.circuit.simulate`, which the fuzzer and the parity tests
  compare the compiled kernel against;
* ``engine="auto"`` (default) — compiled for streams long enough to fill
  words, boolean otherwise (and on hosts without packed lanes).

Bit-for-bit parity between the engines is the contract: both feed the
*identical* toggle counts (in net order) into the identical charge
accounting, so ``PowerTrace.charge`` and ``total_toggles`` match exactly,
not just to tolerance.  The parity suite in
``tests/circuit/test_program.py`` enforces this across every registered
module kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..obs.events import EVENTS
from ..obs.tracing import span
from .compiled import CompiledNetlist
from .netlist import Netlist
from .packed import (
    PACKED_AVAILABLE,
    extract_lane,
    inject_lane,
    n_words_for,
    pack_lanes,
    unpack_lanes,
)
from .native import decode_native, native_decode, native_tables
from .program import compile_program, decode_planes
from .simulate import functional_values, unit_delay_transition, zero_delay_toggles

#: Engine names accepted by :class:`PowerSimulator`.
ENGINES = ("auto", "bool", "compiled")

#: Default chunk size (transitions per vectorized batch), shared by both
#: engines: identical chunk boundaries make default-configured engines
#: bit-identical in ``charge`` too, not just in toggles (float summation
#: order matches chunk by chunk).
DEFAULT_CHUNK = 2048

#: Streams shorter than this gain nothing from packing (the pack/unpack
#: overhead exceeds one word's worth of lane parallelism), so ``auto``
#: keeps them on the boolean engine.
AUTO_PACKED_MIN_CYCLES = 64

#: Lanes per block of the compiled engine's fused decode + dgemv (a
#: multiple of 64, i.e. whole lane words).  Each block decodes into one
#: per-simulator ``[n_nets, FUSED_BLOCK_LANES]`` float64 buffer, so the
#: dense count matrix never scales with the chunk length.
FUSED_BLOCK_LANES = 256


@dataclass(frozen=True)
class SimulationStats:
    """Telemetry of one :meth:`PowerSimulator.simulate` call.

    Attributes:
        engine: Resolved engine that produced the trace
            ("bool" or "compiled").
        n_cycles: Transitions simulated.
        total_toggles: Sum of per-cycle toggle counts over the run.
        seconds: Wall-clock time of the call.
    """

    engine: str
    n_cycles: int
    total_toggles: int
    seconds: float


@dataclass(frozen=True)
class PowerTrace:
    """Result of simulating a pattern stream.

    Attributes:
        charge: Per-cycle charge, one entry per consecutive input pair
            (length ``n_patterns - 1``).
        total_toggles: Per-cycle total toggle count (same length).
    """

    charge: np.ndarray
    total_toggles: np.ndarray

    @property
    def n_cycles(self) -> int:
        return len(self.charge)

    @property
    def average_charge(self) -> float:
        return float(self.charge.mean()) if self.n_cycles else 0.0

    @property
    def total_charge(self) -> float:
        return float(self.charge.sum())


def _totals(toggles: np.ndarray) -> np.ndarray:
    """Per-cycle toggle totals from a ``uint8`` toggle matrix.

    Exactly ``toggles.sum(axis=0, dtype=np.int64)`` — integer sums have a
    single correct answer — but accumulating in ``uint32`` first keeps the
    reduction in a quarter of the memory traffic, which is measurable at
    chunk scale.  Safe while ``n_nets * 255 < 2**32`` (tens of millions of
    nets; far beyond any module here).
    """
    return toggles.sum(axis=0, dtype=np.uint32).astype(np.int64)


class PowerSimulator:
    """Per-cycle charge simulation for one combinational module.

    Args:
        netlist: Module netlist (compiled lazily if a raw netlist is given).
        glitch_aware: If True (default) use the unit-delay engine, which
            counts glitch toggles; if False count only settled-value changes
            (the zero-delay ablation).
        glitch_weight: Charge weight of glitch toggles (toggles beyond the
            settled-value change of a net).  1.0 counts full swings — the
            conservative unit-delay assumption; real gates filter some
            glitches inertially, so values in (0, 1) model partial swings.
            Ignored when ``glitch_aware`` is False.
        chunk_size: Transitions simulated per vectorized batch, bounding
            peak memory (``~3 * n_nets * chunk_size`` bytes of booleans, an
            eighth of that packed).  ``None`` picks :data:`DEFAULT_CHUNK`.
        engine: ``"bool"``, ``"compiled"`` or ``"auto"`` (see module
            doc).  ``"auto"`` resolves to ``"compiled"``, the
            fastest engine, for streams of at least
            :data:`AUTO_PACKED_MIN_CYCLES` transitions on little-endian
            hosts, and to ``"bool"`` otherwise.

    Attributes:
        last_stats: :class:`SimulationStats` of the most recent
            :meth:`simulate` call (``None`` before the first).
    """

    def __init__(
        self,
        netlist: Netlist | CompiledNetlist,
        glitch_aware: bool = True,
        glitch_weight: float = 1.0,
        chunk_size: Optional[int] = None,
        engine: Optional[str] = None,
    ):
        if engine is None:
            engine = "auto"
        if isinstance(netlist, CompiledNetlist):
            self.compiled = netlist
        else:
            self.compiled = CompiledNetlist(netlist)
        self.glitch_aware = glitch_aware
        if not 0.0 <= glitch_weight <= 1.0:
            raise ValueError("glitch_weight must be in [0, 1]")
        self.glitch_weight = float(glitch_weight)
        if chunk_size is not None:
            chunk_size = int(chunk_size)
            if chunk_size <= 0:
                raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if engine == "compiled" and not PACKED_AVAILABLE:
            raise ValueError(
                f"engine={engine!r} needs a little-endian host; use 'auto'"
            )
        self.engine = engine
        self.last_stats: Optional[SimulationStats] = None
        # Reusable buffers of the compiled engine's fused native path
        # (one set per simulator, see _fused_buffers).
        self._fused: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            None
        )

    @property
    def n_inputs(self) -> int:
        return len(self.compiled.netlist.inputs)

    # ------------------------------------------------------------------
    def resolve_engine(self, n_cycles: int) -> str:
        """The engine a stream of ``n_cycles`` transitions would use."""
        if self.engine != "auto":
            return self.engine
        if PACKED_AVAILABLE and n_cycles >= AUTO_PACKED_MIN_CYCLES:
            return "compiled"
        return "bool"

    # ------------------------------------------------------------------
    def simulate(self, input_bits: np.ndarray) -> PowerTrace:
        """Simulate a stream of input vectors.

        Args:
            input_bits: ``[n_patterns, n_inputs]`` boolean matrix of
                consecutive input vectors.

        Returns:
            A :class:`PowerTrace` with ``n_patterns - 1`` cycles.
        """
        started = time.perf_counter()
        input_bits = np.asarray(input_bits, dtype=bool)
        if input_bits.ndim != 2 or input_bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected [n, {self.n_inputs}] input bits, got {input_bits.shape}"
            )
        n_cycles = input_bits.shape[0] - 1
        engine = self.resolve_engine(max(n_cycles, 0))
        if n_cycles < 1:
            self.last_stats = SimulationStats(
                engine=engine, n_cycles=0, total_toggles=0,
                seconds=time.perf_counter() - started,
            )
            return PowerTrace(
                charge=np.zeros(0), total_toggles=np.zeros(0, dtype=np.int64)
            )
        charge = np.empty(n_cycles, dtype=np.float64)
        total = np.empty(n_cycles, dtype=np.int64)
        caps = self.compiled.net_caps
        run_chunk = (
            self._compiled_chunk if engine == "compiled" else self._bool_chunk
        )
        # Glitch weighting needs the functional (settled-value) toggles to
        # split full swings from partial ones; weight 1.0 does not.
        need_functional = self.glitch_aware and self.glitch_weight != 1.0
        # The settled state of each chunk's first vector equals the relaxed
        # final column of the previous chunk (unique fixpoint of an acyclic
        # network), so it is carried across chunks instead of re-settled.
        boundary: Optional[np.ndarray] = None
        chunk_size = self.chunk_size or DEFAULT_CHUNK
        with span("sim.stream", engine=engine, n_cycles=n_cycles):
            for start in range(0, n_cycles, chunk_size):
                stop = min(start + chunk_size, n_cycles)
                old_vecs = input_bits[start:stop]
                new_vecs = input_bits[start + 1 : stop + 1]
                with span("sim.chunk", rows=stop - start):
                    toggles, functional, boundary, pre = run_chunk(
                        old_vecs, new_vecs, boundary, need_functional
                    )
                    pre_charge, pre_totals = (
                        pre if pre is not None else (None, None)
                    )
                    if need_functional:
                        # Split functional toggles (settled-value changes,
                        # full swing) from glitch toggles (extra
                        # transitions, partial swing weighted by
                        # glitch_weight).  Integer counts are converted
                        # to float64 once, up front: the conversion is
                        # exact (counts are tiny), routes the matmul
                        # through BLAS instead of numpy's slow integer
                        # inner loop, and keeps every arithmetic step
                        # dtype-identical for all engines (the
                        # bit-for-bit parity contract).
                        toggles_f = toggles.astype(np.float64)
                        functional_f = functional.astype(np.float64)
                        glitch = toggles_f - functional_f
                        weighted = functional_f + self.glitch_weight * glitch
                        charge[start:stop] = caps @ weighted
                    elif pre_charge is not None:
                        charge[start:stop] = pre_charge
                    else:
                        toggles_f = toggles.astype(np.float64)
                        charge[start:stop] = caps @ toggles_f
                    if pre_totals is not None:
                        total[start:stop] = pre_totals
                    else:
                        total[start:stop] = toggles.sum(
                            axis=0, dtype=np.int64
                        )
        seconds = time.perf_counter() - started
        total_toggles = int(total.sum())
        self.last_stats = SimulationStats(
            engine=engine,
            n_cycles=n_cycles,
            total_toggles=total_toggles,
            seconds=seconds,
        )
        EVENTS.sim_transitions.inc(n_cycles, engine=engine)
        EVENTS.sim_toggles.inc(total_toggles)
        EVENTS.sim_seconds.inc(seconds)
        return PowerTrace(charge=charge, total_toggles=total)

    # ------------------------------------------------------------------
    # Engine chunk kernels.  Both return the *same* dense representation —
    # ``(toggles [n_nets, L], functional | None, boundary, pre | None)``
    # with integer counts (the exact dtype may differ; the shared
    # accounting above converts to float64 before any arithmetic) — so the
    # charge math is shared verbatim and the engines stay bit-identical by
    # construction.  ``pre`` is an optional ``(charge | None, totals)``
    # pair a kernel may supply when it can compute those cheaper than the
    # shared path: ``totals`` ([L] int64) must be exactly equal to
    # ``toggles.sum(axis=0)`` (integer arithmetic, no rounding freedom),
    # and a kernel ``charge`` must come from the *same* BLAS dgemv on a
    # float64 matrix holding bit-for-bit the values the shared astype
    # would produce — never from a reassociated or mixed-precision
    # shortcut.  A kernel supplying both may return ``toggles=None``
    # (only legal when ``need_functional`` is False).
    # ------------------------------------------------------------------
    def _bool_chunk(
        self,
        old_vecs: np.ndarray,
        new_vecs: np.ndarray,
        boundary: Optional[np.ndarray],
        need_functional: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray,
               Optional[np.ndarray]]:
        if boundary is None:
            settled = functional_values(self.compiled, old_vecs)
        else:
            # Carried column: only vectors after the first need settling.
            rest = functional_values(self.compiled, old_vecs[1:])
            settled = np.concatenate([boundary[:, None], rest], axis=1)
        if self.glitch_aware:
            final, toggles = unit_delay_transition(
                self.compiled, settled, new_vecs
            )
            functional = (
                zero_delay_toggles(self.compiled, settled, final)
                if need_functional else None
            )
            return toggles, functional, final[:, -1].copy(), None
        settled_new = functional_values(self.compiled, new_vecs)
        toggles = zero_delay_toggles(self.compiled, settled, settled_new)
        # Input pin charging is counted in both modes.
        return toggles, None, settled_new[:, -1].copy(), None

    def _compiled_chunk(
        self,
        old_vecs: np.ndarray,
        new_vecs: np.ndarray,
        boundary: Optional[np.ndarray],
        need_functional: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray,
               Optional[np.ndarray]]:
        # Values live in packed lanes and *program row order*; everything
        # handed back to the shared accounting is permuted to net order
        # through row_of_net (a full
        # permutation — lut_fold is never enabled here, it would break
        # the glitch parity contract).  Permutation happens on the packed
        # words (tiny) before any unpack/decode, never on dense matrices.
        # The boundary column stays in program order: it is only ever
        # consumed by this kernel.
        program = compile_program(self.compiled)
        n_lanes = len(old_vecs)
        n_words = n_words_for(n_lanes)
        old_packed = pack_lanes(old_vecs.T, n_words)
        new_packed = pack_lanes(new_vecs.T, n_words)
        settled = program.settle(old_packed, n_words)
        if boundary is not None:
            inject_lane(settled, 0, boundary)
        row_of_net = program.row_of_net
        if self.glitch_aware:
            # Fused native path: relax into a persistent plane buffer,
            # then walk the chunk in FUSED_BLOCK_LANES-lane blocks: one C
            # pass decodes a block's planes -> net-ordered float64 counts
            # + per-lane totals into a persistent [n_nets, block] buffer,
            # and that block's dgemv writes its slice of the chunk charge.
            # No temporaries scale with the chunk (the allocation churn,
            # not the arithmetic, dominates sustained multi-chunk runs).
            # Each dgemv runs on bit-for-bit the columns the shared
            # astype path would build, and blocks start on whole words.
            # Charge then matches the whole-chunk dgemv of the bool
            # engine bit for bit *only if* the BLAS sums each
            # output element in an order independent of how many rows
            # the call has.  That is an assumption about the BLAS
            # library (OpenBLAS holds it: 256 is a multiple of its
            # 4-row tail), not something this code guarantees;
            # tests/circuit/test_program.py::test_blocked_fused_parity
            # checks it on the host with ragged lane counts (903, 3001,
            # chunk 999), so a BLAS that breaks it fails the suite.
            fused = (
                not need_functional
                and program.max_planes <= 8
                and native_tables(program) is not None
                and native_decode() is not None
            )
            if fused:
                planes_buf, counts_buf, totals_u32 = self._fused_buffers(
                    program, n_words
                )
                final, accumulator, _ = program.relax(
                    settled, new_packed, planes_buffer=planes_buf
                )
                n_used = len(accumulator.planes)
                chunk_charge = np.zeros(n_lanes)
                chunk_totals = np.zeros(n_lanes, dtype=np.int64)
                if n_used:
                    row64 = program.__dict__.get("_row_of_net64")
                    if row64 is None:
                        row64 = np.ascontiguousarray(
                            row_of_net, dtype=np.int64
                        )
                        program.__dict__["_row_of_net64"] = row64
                    caps = self.compiled.net_caps
                    n_nets = len(caps)
                    for lo in range(0, n_lanes, FUSED_BLOCK_LANES):
                        hi = min(lo + FUSED_BLOCK_LANES, n_lanes)
                        counts = counts_buf[: n_nets * (hi - lo)].reshape(
                            n_nets, hi - lo
                        )
                        totals = totals_u32[: hi - lo]
                        decode_native(
                            planes_buf[:n_used], row64, hi - lo,
                            counts, totals, word_offset=lo // 64,
                        )
                        np.dot(caps, counts, out=chunk_charge[lo:hi])
                        chunk_totals[lo:hi] = totals
                pre = (chunk_charge, chunk_totals)
                return None, None, extract_lane(final, n_lanes - 1), pre
            final, accumulator, _ = program.relax(settled, new_packed)
            if accumulator.planes:
                toggles = decode_planes(
                    [p[row_of_net] for p in accumulator.planes], n_lanes
                )
            else:
                toggles = np.zeros(
                    (self.compiled.n_nets, n_lanes), dtype=np.uint8
                )
            functional = (
                unpack_lanes((settled ^ final)[row_of_net], n_lanes)
                if need_functional else None
            )
            return (toggles, functional,
                    extract_lane(final, n_lanes - 1),
                    (None, _totals(toggles)))
        settled_new = program.settle(new_packed, n_words)
        toggles = unpack_lanes(
            (settled ^ settled_new)[row_of_net], n_lanes
        )
        return (toggles, None,
                extract_lane(settled_new, n_lanes - 1),
                (None, _totals(toggles)))

    def _fused_buffers(
        self, program, n_words: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fused native path's buffers, one set per simulator.

        A ``[max_planes, n_rows, n_words]`` plane view into a flat
        buffer that only grows (to the longest chunk seen), a flat
        float64 count buffer of ``n_nets * FUSED_BLOCK_LANES`` and a
        ``uint32`` block totals vector.  The count buffer is fixed by
        the lane block, never by the chunk length (a whole-chunk
        float64 matrix costs 8 bytes per net and lane); reusing all
        three avoids fresh multi-MB allocations per chunk, which thrash
        the allocator in sustained runs.
        """
        if self._fused is None:
            self._fused = (
                np.zeros(0, dtype=np.uint64),
                np.empty(self.compiled.n_nets * FUSED_BLOCK_LANES),
                np.empty(FUSED_BLOCK_LANES, dtype=np.uint32),
            )
        planes, counts, totals = self._fused
        plane_words = program.max_planes * program.n_rows * n_words
        if planes.size < plane_words:
            planes = np.zeros(plane_words, dtype=np.uint64)
            self._fused = (planes, counts, totals)
        return (
            planes[:plane_words].reshape(
                program.max_planes, program.n_rows, n_words
            ),
            counts,
            totals,
        )

    def average_charge(self, input_bits: np.ndarray) -> float:
        """Convenience: mean per-cycle charge over a stream."""
        return self.simulate(input_bits).average_charge
