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

Bit-for-bit parity between the engines is the contract: both produce the
*identical* toggle counts, and every charge path sums them in one fixed
order (:func:`net_order_charge`: per transition, capacitance times count,
added in ascending net order), so ``PowerTrace.charge`` and
``total_toggles`` match exactly, not just to tolerance, whatever the
chunking.  The parity suite in ``tests/circuit/test_program.py``
enforces this across every registered module kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from ..obs.events import EVENTS
from ..obs.tracing import span
from .compiled import CompiledNetlist
from .netlist import Netlist
from .native import ChunkKernel, native_kernel, native_tables
from .packed import PACKED_AVAILABLE, n_words_for, pack_lanes, unpack_lanes
from .program import compile_program, decode_planes
from .simulate import functional_values, unit_delay_transition, zero_delay_toggles

#: Engine names accepted by :class:`PowerSimulator`.
ENGINES = ("auto", "bool", "compiled")

#: Default chunk size (transitions per vectorized batch), shared by both
#: engines.  Charge does not depend on it: every transition sums its own
#: nets in a fixed order.
DEFAULT_CHUNK = 2048

#: Streams shorter than this gain nothing from packing (the pack/unpack
#: overhead exceeds one word's worth of lane parallelism), so ``auto``
#: keeps them on the boolean engine.
AUTO_PACKED_MIN_CYCLES = 64

#: Elements of one block of :func:`net_order_charge`'s products, which
#: bounds its temporary memory whatever the chunk length.
REDUCE_BLOCK_ELEMENTS = 1 << 16


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


def net_order_charge(caps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-transition charge: ``sum(caps[net] * counts[net, l])``.

    The one charge contract of every engine: for each transition ``l``,
    multiply each net's capacitance by its count, then add the products
    in ascending net order.  The native kernel sums the same way, so
    charge is bit-identical across engines and independent of chunking.
    ``np.add.accumulate`` along the net axis is strictly sequential;
    ``@`` (BLAS) and ``.sum`` (pairwise) are not and must not be used
    here.  Nets go in blocks, carrying the running sum from block to
    block, so the float64 products never exceed
    :data:`REDUCE_BLOCK_ELEMENTS`.

    Args:
        caps: ``[n_nets]`` float64 capacitances.
        counts: ``[n_nets, n_lanes]`` counts (any integer or float dtype;
            integers convert to float64 exactly).
    """
    n_nets, n_lanes = counts.shape
    partial = np.zeros(n_lanes)
    step = max(1, REDUCE_BLOCK_ELEMENTS // max(n_lanes, 1))
    for lo in range(0, n_nets, step):
        terms = caps[lo:lo + step, None] * counts[lo:lo + step]
        terms[0] += partial
        np.add.accumulate(terms, axis=0, out=terms)
        partial = terms[-1]
    return partial


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
        # The native chunk call, bound on first use to this simulator's
        # program (see _native_kernel).
        self._kernel: Optional[ChunkKernel] = None

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
        run_chunk = self._bool_chunk
        if engine == "compiled":
            # The native gate is read once per stream.
            run_chunk = partial(
                self._compiled_chunk, kernel=self._native_kernel()
            )
        boundary: Optional[np.ndarray] = None
        chunk_size = self.chunk_size or DEFAULT_CHUNK
        with span("sim.stream", engine=engine, n_cycles=n_cycles):
            for start in range(0, n_cycles, chunk_size):
                stop = min(start + chunk_size, n_cycles)
                old_vecs = input_bits[start:stop]
                new_vecs = input_bits[start + 1 : stop + 1]
                with span("sim.chunk", rows=stop - start):
                    charge[start:stop], total[start:stop], boundary = (
                        run_chunk(old_vecs, new_vecs, boundary)
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

    def _native_kernel(self) -> Optional[ChunkKernel]:
        """The bound native chunk call, or ``None`` for the numpy path.

        The native call covers the glitch-aware run at full glitch
        weight; the zero-delay ablation and partial glitch weights need
        per-net counts and take the numpy path.
        """
        if (
            not self.glitch_aware
            or self.glitch_weight != 1.0
            or native_kernel() is None
        ):
            return None
        if self._kernel is None:
            program = compile_program(self.compiled)
            tables = native_tables(program)
            if tables is None:
                return None
            self._kernel = ChunkKernel(
                program, tables, self.compiled.net_caps
            )
        return self._kernel

    def _charge_and_totals(
        self, toggles: np.ndarray, functional: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The shared accounting of per-net counts, in net order.

        With ``functional`` (settled-value changes), glitch toggles
        beyond them are weighted by ``glitch_weight``.
        """
        counts = toggles
        if functional is not None:
            functional_f = functional.astype(np.float64)
            glitch = toggles.astype(np.float64) - functional_f
            counts = functional_f + self.glitch_weight * glitch
        return net_order_charge(self.compiled.net_caps, counts), _totals(
            toggles
        )

    # ------------------------------------------------------------------
    # Engine chunk kernels.  Each returns ``(charge [L], totals [L],
    # boundary)``; ``boundary`` is whatever the kernel wants handed back
    # with the next chunk.
    # ------------------------------------------------------------------
    def _bool_chunk(
        self,
        old_vecs: np.ndarray,
        new_vecs: np.ndarray,
        boundary: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The settled state of a chunk's first vector equals the relaxed
        # final column of the previous chunk (unique fixpoint of an
        # acyclic network), so it is carried instead of re-settled.
        if boundary is None:
            settled = functional_values(self.compiled, old_vecs)
        else:
            rest = functional_values(self.compiled, old_vecs[1:])
            settled = np.concatenate([boundary[:, None], rest], axis=1)
        if self.glitch_aware:
            final, toggles = unit_delay_transition(
                self.compiled, settled, new_vecs
            )
            functional = (
                zero_delay_toggles(self.compiled, settled, final)
                if self.glitch_weight != 1.0 else None
            )
            return (*self._charge_and_totals(toggles, functional),
                    final[:, -1].copy())
        settled_new = functional_values(self.compiled, new_vecs)
        toggles = zero_delay_toggles(self.compiled, settled, settled_new)
        # Input pin charging is counted in both modes.
        return (*self._charge_and_totals(toggles, None),
                settled_new[:, -1].copy())

    def _compiled_chunk(
        self,
        old_vecs: np.ndarray,
        new_vecs: np.ndarray,
        boundary: None,
        kernel: Optional[ChunkKernel],
    ) -> Tuple[np.ndarray, np.ndarray, None]:
        # Every lane is settled afresh (a 64-lane word costs the same with
        # or without the carried column), so no boundary is carried.
        n_lanes = len(old_vecs)
        n_words = n_words_for(n_lanes)
        old_packed = pack_lanes(old_vecs.T, n_words)
        new_packed = pack_lanes(new_vecs.T, n_words)
        if kernel is not None:
            return (*kernel.run(old_packed, new_packed, n_lanes), None)
        # Numpy path.  Values live in packed lanes and program row order;
        # the (tiny) packed planes are permuted to net order through
        # row_of_net before decoding.
        program = compile_program(self.compiled)
        row_of_net = program.row_of_net
        settled = program.settle(old_packed, n_words)
        if not self.glitch_aware:
            settled_new = program.settle(new_packed, n_words)
            toggles = unpack_lanes(
                (settled ^ settled_new)[row_of_net], n_lanes
            )
            return (*self._charge_and_totals(toggles, None), None)
        final, accumulator, _ = program.relax(settled, new_packed)
        if accumulator.planes:
            toggles = decode_planes(
                [p[row_of_net] for p in accumulator.planes], n_lanes
            )
        else:
            toggles = np.zeros((self.compiled.n_nets, n_lanes), dtype=np.uint8)
        functional = (
            unpack_lanes((settled ^ final)[row_of_net], n_lanes)
            if self.glitch_weight != 1.0 else None
        )
        return (*self._charge_and_totals(toggles, functional), None)

    def average_charge(self, input_bits: np.ndarray) -> float:
        """Convenience: mean per-cycle charge over a stream."""
        return self.simulate(input_bits).average_charge
