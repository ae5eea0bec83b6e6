"""Compilation of netlists into straight-line bitwise programs.

Packing the pattern axis into ``uint64`` lanes
(:mod:`repro.circuit.packed`) evaluates 64 transitions per word, but a
naive unit-delay relaxation over packed lanes still pays per-step costs
proportional to the *whole* circuit: every synchronous step re-evaluates
every type group over every gate, copies the full value matrix, and
XOR-compares and ripple-adds all of it — even though after step ``t``
only nets at level ``>= t`` can still change (a level-``L`` net depends
on paths of length at most ``L``, so it is stable from step ``L`` on).

:func:`compile_program` lowers a
:class:`~repro.circuit.compiled.CompiledNetlist` once into a
:class:`BitwiseProgram` that exploits that wavefront structure with plain
slice arithmetic:

* **Class canonicalization.**  Every library cell maps onto one of five
  three-pin evaluation classes — ``AND`` (AND/OR/NAND/NOR/INV/BUF via
  De Morgan), ``XOR`` (XOR/XNOR), ``MAJ``, ``MUX`` and ``AOI``
  (AOI21/OAI21) — plus per-gate input/output inversion mask columns and
  constant pad pins (:data:`_CANON`).  Seventeen cell types collapse to
  at most five relax groups, so the per-step Python dispatch cost drops
  with them.
* **Row layout.**  Row 0 is constant 0, row 1 constant 1, rows
  ``2 .. 2 + n_inputs`` the primary inputs in port order; gate outputs
  follow in per-*class* blocks, each block sorted by level.  Two slice
  families fall out of this single layout: every (level, class) run is
  contiguous (the settle tape writes pure slices), and the gates of one
  class at level ``>= t`` are a contiguous *suffix* of their block (the
  relaxation window shrinks by slicing, no index arrays in the hot loop).
* **Instruction tape.**  All gates of one (level, class) fuse into a
  single instruction whose operand rows are precomputed as one
  ``[3, G]`` index matrix; :meth:`BitwiseProgram.settle` is one
  ascending pass over the tape — a fancy gather, a handful of vectorized
  bitwise ops, one slice store per instruction, zero per-gate Python
  dispatch.
* **Windowed relaxation.**  :meth:`BitwiseProgram.relax` runs the
  synchronous unit-delay dynamics with a shrinking active window: at step
  ``t`` it evaluates, per class block, only the suffix of gates at level
  ``>= t`` (reads are staged before any write, exactly like the ``bool``
  reference, so the snapshot semantics — and therefore every glitch toggle
  — are bit-identical).  Gates below the window are provably settled, so
  skipping them changes nothing; total work is ``sum(levels)`` gate
  evaluations instead of ``depth * n_gates``, a 4-6x reduction on
  arithmetic arrays.  Evaluations run through per-group preallocated
  scratch buffers with ``out=`` kwargs (no temporaries in the hot loop).
  The loop stops at the first step with no change (the synchronous
  fixpoint) and can never need more than ``depth`` steps.

Toggle accounting reuses the bit-sliced plane representation of
:class:`~repro.circuit.packed.ToggleAccumulator`, but planes are folded
per *slice* (ripple-carry over ``plane[start:stop]``) so the cost per
step also tracks the active window, and they are decoded via a single
stacked ``unpackbits`` + weighted sum (:func:`decode_planes`) instead of
one unpack per plane.  Decoded counts come back in program-row order;
callers scatter the (tiny, packed) planes to net order through
:attr:`BitwiseProgram.row_of_net` before decoding, after which the shared
charge accounting in :mod:`repro.circuit.power` is verbatim-identical
across engines.

**LUT folding** (``lut_fold=True``) additionally collapses single-fanout
cones of up to ``lut_max_gates`` gates with at most 3 distinct external
inputs into one 8-entry lookup instruction (evaluated as a sum of
minterm products against per-cone minterm masks; folded cones form their
own block/relax group).  Folding compresses the cone's internal unit
delays into a single delay, which *changes glitch arrival times
downstream* — exact glitch-toggle parity under folding is impossible in
general, so folding is an opt-in approximation for functional evaluation
and approximate power, never used by ``engine="compiled"`` (whose
contract is bit-identical parity).  Interior cone nets lose their rows;
their capacitance is lumped onto the cone root in
:attr:`BitwiseProgram.row_caps`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.events import EVENTS
from ..obs.tracing import span
from .compiled import CompiledNetlist
from .native import native_status, native_tables, relax_native
from .netlist import CONST0, CONST1, Gate
from .packed import ToggleAccumulator, n_words_for, pack_lanes, unpack_lanes
from .technology import GATE_TYPES

#: Program rows of the constant nets (mirrors the net numbering).
ROW_CONST0 = 0
ROW_CONST1 = 1

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: LUT folding limits: cones are capped at 3 external inputs (an 8-entry
#: table, matching the widest library cell) and this many folded gates.
LUT_MAX_INPUTS = 3
DEFAULT_LUT_MAX_GATES = 4

#: Block name of the folded-cone group (sorts after every library cell).
_LUT_BLOCK = "~LUT"

#: Canonical three-pin evaluation class of every library cell:
#: ``type -> (class, pad_net, input_inversions, output_inversion)``.
#: Pins beyond the cell's real arity are padded with ``pad_net`` (the
#: identity element of the class core: AND pads 1, XOR pads 0; MAJ, MUX
#: and AOI cells are all genuinely 3-pin).  The class core functions are
#:
#: * ``AND``: ``(a ^ ia) & (b ^ ib) & (c ^ ic)`` — with De Morgan
#:   inversions this covers INV, BUF, AND*, OR*, NAND*, NOR*;
#: * ``XOR``: ``a ^ b ^ c`` — input inversions fold into the output one;
#: * ``MAJ``: ``(a & (b | c)) | (b & c)``;
#: * ``MUX``: ``a ^ ((a ^ b) & sel)`` with pins ``(sel, a, b)`` — three
#:   ops instead of the four of ``(a & ~sel) | (b & sel)``;
#: * ``AOI``: ``((a ^ ia) & (b ^ ib)) | (c ^ ic)`` — OAI21 is the AOI
#:   core with every literal inverted (De Morgan again).
#:
#: The final output inversion is applied after the core.  All masks are
#: per-gate ``[G, 1]`` columns, so one block freely mixes, say, AND2 and
#: NOR3 gates.
_CANON: Dict[str, Tuple[str, int, Tuple[int, int, int], int]] = {
    "INV": ("AND", CONST1, (1, 0, 0), 0),
    "BUF": ("AND", CONST1, (0, 0, 0), 0),
    "AND2": ("AND", CONST1, (0, 0, 0), 0),
    "OR2": ("AND", CONST1, (1, 1, 0), 1),
    "NAND2": ("AND", CONST1, (0, 0, 0), 1),
    "NOR2": ("AND", CONST1, (1, 1, 0), 0),
    "AND3": ("AND", CONST1, (0, 0, 0), 0),
    "OR3": ("AND", CONST1, (1, 1, 1), 1),
    "NAND3": ("AND", CONST1, (0, 0, 0), 1),
    "NOR3": ("AND", CONST1, (1, 1, 1), 0),
    "XOR2": ("XOR", CONST0, (0, 0, 0), 0),
    "XNOR2": ("XOR", CONST0, (0, 0, 0), 1),
    "XOR3": ("XOR", CONST0, (0, 0, 0), 0),
    "MAJ3": ("MAJ", CONST0, (0, 0, 0), 0),
    "MUX2": ("MUX", CONST0, (0, 0, 0), 0),
    "AOI21": ("AOI", CONST0, (0, 0, 0), 1),
    "OAI21": ("AOI", CONST0, (1, 1, 1), 0),
}


def _canon_spec(type_name: str) -> Tuple[str, int, Tuple[int, int, int], int]:
    try:
        return _CANON[type_name]
    except KeyError:
        raise KeyError(
            f"gate type {type_name!r} has no canonical evaluation class; "
            f"extend _CANON alongside the technology library"
        ) from None


def _class_eval(
    cls: str,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    t: np.ndarray,
    inv: Sequence[Optional[np.ndarray]],
    out_mask: Optional[np.ndarray],
) -> np.ndarray:
    """Evaluate one canonical class over gathered pin stacks, in place.

    ``x, y, z`` are the writable ``[G, W]`` pin-0/1/2 value stacks (they
    are scribbled on), ``t`` a same-shaped scratch block (used by MAJ
    only), ``inv``/``out_mask`` the per-gate ``[G, 1]`` inversion
    columns (``None`` where no gate in the group inverts).  Returns the
    output stack (a view into one of the four buffers).
    """
    if cls == "XOR":
        np.bitwise_xor(x, y, out=x)
        np.bitwise_xor(x, z, out=x)
        out = x
    elif cls == "MAJ":
        np.bitwise_or(y, z, out=t)
        np.bitwise_and(x, t, out=t)
        np.bitwise_and(y, z, out=y)
        np.bitwise_or(t, y, out=t)
        out = t
    elif cls == "MUX":
        np.bitwise_xor(y, z, out=z)
        np.bitwise_and(z, x, out=z)
        np.bitwise_xor(z, y, out=z)
        out = z
    else:  # AND and AOI share the inversion plumbing.
        if inv[0] is not None:
            np.bitwise_xor(x, inv[0], out=x)
        if inv[1] is not None:
            np.bitwise_xor(y, inv[1], out=y)
        if inv[2] is not None:
            np.bitwise_xor(z, inv[2], out=z)
        np.bitwise_and(x, y, out=x)
        if cls == "AOI":
            np.bitwise_or(x, z, out=x)
        else:
            np.bitwise_and(x, z, out=x)
        out = x
    if out_mask is not None:
        np.bitwise_xor(out, out_mask, out=out)
    return out


def _lut_eval(pins: np.ndarray, masks: Sequence[Optional[np.ndarray]]):
    """Sum-of-minterm-products evaluation of a group of 3-input LUTs.

    ``pins`` is the gathered ``[3, G, n_words]`` operand stack; ``masks``
    holds one ``[G, 1]`` all-ones/all-zeros column per minterm (``None``
    where no cone in the group uses that minterm), broadcast across
    lanes.
    """
    a, b, c = pins
    na, nb, nc = ~a, ~b, ~c
    sel = ((na, a), (nb, b), (nc, c))
    out = np.zeros_like(a)
    for m, mask in enumerate(masks):
        if mask is None:
            continue
        out |= sel[0][m & 1] & sel[1][(m >> 1) & 1] & sel[2][(m >> 2) & 1] \
            & mask
    return out


class Instruction:
    """One fused settle step: all gates of one (level, class), or one
    level's folded cones.

    Attributes:
        level: Topological level of the written rows (tape order).
        kind: ``"op"`` for a native class group, ``"lut"`` for cones.
        name: Canonical class name, or ``"LUT"``.
        inv: Per-pin inversion mask columns (class groups, else ``None``).
        out_mask: Output inversion mask column (or ``None``).
        masks: Minterm mask columns (LUTs only, else ``None``).
        in_rows: ``[3, G]`` operand row indices (one gather).
        start, stop: The contiguous output row slice this instruction
            owns (inside its class block).
        n_gates: Source gates represented (> G for folded cones).
    """

    __slots__ = (
        "level", "kind", "name", "inv", "out_mask", "masks", "in_rows",
        "start", "stop", "n_gates",
    )

    def __init__(self, level, kind, name, inv, out_mask, masks, in_rows,
                 start, stop, n_gates):
        self.level = level
        self.kind = kind
        self.name = name
        self.inv = inv
        self.out_mask = out_mask
        self.masks = masks
        self.in_rows = in_rows
        self.start = start
        self.stop = stop
        self.n_gates = n_gates

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        pins = values[self.in_rows]  # fresh writable [3, G, W] copy
        if self.kind != "op":
            return _lut_eval(pins, self.masks)
        tmp = np.empty_like(pins[0]) if self.name == "MAJ" else pins[0]
        return _class_eval(
            self.name, pins[0], pins[1], pins[2], tmp, self.inv,
            self.out_mask,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Instruction({self.name}@L{self.level}, "
            f"rows[{self.start}:{self.stop}], gates={self.n_gates})"
        )


class RelaxGroup:
    """One class block as seen by the windowed relaxation loop.

    Attributes:
        kind, name, inv, out_mask, masks: As in :class:`Instruction`,
            covering the *whole* block.
        in_rows: ``[3, G]`` operand rows, level-sorted like the block.
        base: First row of the block; the block spans
            ``[base, base + size)``.
        size: Gate (row) count of the block.
        level_first: Plain int list, ``[depth + 2]`` long —
            ``level_first[t]`` is the block position of the first gate at
            level ``>= t``, so the step-``t`` active suffix is
            ``[level_first[t], size)``.
    """

    __slots__ = ("kind", "name", "inv", "out_mask", "masks", "in_rows",
                 "base", "size", "level_first", "_scratch", "_suffix")

    def __init__(self, kind, name, inv, out_mask, masks, in_rows, base,
                 size, level_first):
        self.kind = kind
        self.name = name
        self.inv = inv
        self.out_mask = out_mask
        self.masks = masks
        self.in_rows = in_rows
        self.base = base
        self.size = size
        self.level_first = level_first
        #: n_words -> preallocated [4 * size, n_words] uint64 buffer.
        self._scratch: Dict[int, np.ndarray] = {}
        #: k -> (flat gather index, sliced inv masks, sliced out mask):
        #: the per-suffix constants, built once per distinct window.
        self._suffix: Dict[int, tuple] = {}

    def _suffix_plan(self, k: int) -> tuple:
        plan = self._suffix.get(k)
        if plan is None:
            idx = np.ascontiguousarray(self.in_rows[:, k:]).reshape(-1)
            inv = (None, None, None) if self.inv is None else tuple(
                m if m is None else m[k:] for m in self.inv
            )
            om = None if self.out_mask is None else self.out_mask[k:]
            plan = (idx, inv, om)
            self._suffix[k] = plan
        return plan

    def eval_diff(
        self, values: np.ndarray, k: int, n_words: int
    ) -> Optional[np.ndarray]:
        """Evaluate the suffix from position ``k``; return its XOR diff.

        Reads only (safe while other groups stage against the same
        snapshot); the returned ``[size - k, n_words]`` diff lives in
        this group's private scratch.  ``None`` when nothing changed.
        """
        g = self.size - k
        if self.kind != "op":
            masks = [m if m is None else m[k:] for m in self.masks]
            out = _lut_eval(values[self.in_rows[:, k:]], masks)
        else:
            buf = self._scratch.get(n_words)
            if buf is None:
                buf = np.empty((4 * self.size, n_words), dtype=np.uint64)
                self._scratch[n_words] = buf
            idx, inv, om = self._suffix_plan(k)
            gathered = buf[: 3 * g]
            np.take(values, idx, axis=0, out=gathered)
            out = _class_eval(
                self.name,
                gathered[:g], gathered[g: 2 * g], gathered[2 * g:],
                buf[3 * g: 4 * g],
                inv, om,
            )
        np.bitwise_xor(
            out, values[self.base + k: self.base + self.size], out=out
        )
        if not out.any():
            return None
        return out


class _SuperGate:
    """A candidate LUT cone during folding: gates + external inputs."""

    __slots__ = ("output", "gates", "inputs")

    def __init__(self, output: int, gates: List[Gate], inputs: List[int]):
        self.output = output
        self.gates = gates
        self.inputs = inputs


def _dedup(nets: Sequence[int]) -> List[int]:
    """Order-preserving de-duplication of a net list."""
    return list(dict.fromkeys(nets))


def _fold_cones(
    netlist, levels: np.ndarray, max_gates: int
) -> List[_SuperGate]:
    """Greedily absorb single-fanout children into their unique reader.

    A gate-driven net is foldable when exactly one gate pin reads it and
    it is not a primary output (its row must survive).  Merging keeps the
    cone's external input set at most :data:`LUT_MAX_INPUTS` wide and the
    gate count at most ``max_gates``.  Children are absorbed bottom-up
    (ascending root level) to fixpoint, so chains collapse maximally
    under the caps.  Returns the surviving supergates; single-gate ones
    are emitted as native instructions, multi-gate ones as LUTs.
    """
    fanout: Dict[int, int] = {}
    for gate in netlist.gates:
        for net in gate.inputs:
            fanout[net] = fanout.get(net, 0) + 1
    primary_outputs = set(netlist.outputs)
    sgs: Dict[int, _SuperGate] = {
        g.output: _SuperGate(g.output, [g], _dedup(g.inputs))
        for g in netlist.gates
    }
    changed = True
    while changed:
        changed = False
        for out in sorted(sgs, key=lambda n: (int(levels[n]), n)):
            sg = sgs.get(out)
            if sg is None:
                continue
            for net in list(sg.inputs):
                child = sgs.get(net)
                if (
                    child is None
                    or net in primary_outputs
                    or fanout.get(net, 0) != 1
                    or len(child.gates) + len(sg.gates) > max_gates
                ):
                    continue
                merged = _dedup(
                    child.inputs + [n for n in sg.inputs if n != net]
                )
                if len(merged) > LUT_MAX_INPUTS:
                    continue
                # Child gates are internally topo-ordered and depend only
                # on externals, so prepending keeps the cone topo-sorted.
                sg.gates = child.gates + sg.gates
                sg.inputs = merged
                del sgs[net]
                changed = True
    return [sgs[out] for out in sorted(sgs)]


def _cone_table(sg: _SuperGate) -> int:
    """8-bit truth table of a cone over its (padded) external inputs.

    Minterm ``m`` assigns bit ``j`` of ``m`` to external input ``j``; pad
    pins beyond ``len(sg.inputs)`` are constant 0, so the table simply
    ignores them (``m`` is masked down to the real input count).
    """
    k = len(sg.inputs)
    n_combo = 1 << k
    local: Dict[int, np.ndarray] = {
        CONST0: np.zeros(n_combo, dtype=bool),
        CONST1: np.ones(n_combo, dtype=bool),
    }
    for j, net in enumerate(sg.inputs):
        local[net] = np.array(
            [(m >> j) & 1 for m in range(n_combo)], dtype=bool
        )
    for gate in sg.gates:
        local[gate.output] = GATE_TYPES[gate.type_name].func(
            *[local[n] for n in gate.inputs]
        )
    out_bits = local[sg.output]
    return sum(
        1 << m for m in range(8) if out_bits[m & (n_combo - 1)]
    )


def _minterm_masks(
    tables: Sequence[int],
) -> List[Optional[np.ndarray]]:
    """Per-minterm ``[G, 1]`` all-ones/all-zeros mask columns."""
    masks: List[Optional[np.ndarray]] = []
    for m in range(8):
        bits = np.array([(t >> m) & 1 for t in tables], dtype=bool)
        if not bits.any():
            masks.append(None)
        else:
            masks.append(
                np.where(bits, _ALL_ONES, np.uint64(0)).reshape(-1, 1)
            )
    return masks


def _inv_masks(
    bits_per_pin: np.ndarray,
) -> Tuple[Optional[List[Optional[np.ndarray]]], np.ndarray]:
    """Per-pin ``[G, 1]`` inversion columns from a ``[G, 3]`` bool grid.

    Returns ``(inv, any_bits)`` where ``inv`` is ``None`` when no pin of
    any gate inverts (the common all-plain block) and ``any_bits`` flags
    which pins had inversions (for tape slicing).
    """
    inv: List[Optional[np.ndarray]] = []
    for p in range(3):
        col = bits_per_pin[:, p]
        if not col.any():
            inv.append(None)
        else:
            inv.append(
                np.where(col, _ALL_ONES, np.uint64(0)).reshape(-1, 1)
            )
    if all(m is None for m in inv):
        return None, bits_per_pin.any(axis=0)
    return inv, bits_per_pin.any(axis=0)


def _fold_slice(
    planes: List[np.ndarray],
    full_shape: Tuple[int, int],
    start: int,
    stop: int,
    diff: np.ndarray,
    max_count: int,
) -> None:
    """Ripple-carry add a one-bit change mask into plane slices.

    The slice-local twin of :meth:`ToggleAccumulator.add`: only rows
    ``[start, stop)`` can carry, so each plane is touched over that slice
    in place instead of reallocating the full matrix.

    ``max_count`` is an upper bound on the toggle count any row in the
    slice can hold *after* this add (each relaxation step contributes at
    most one toggle per row, so step ``t`` passes ``t``).  The ripple
    provably dies within ``max_count.bit_length()`` planes, which lets
    the common case skip the final carry scan entirely.
    """
    bound = max_count.bit_length()
    carry = diff
    for p in range(bound):
        if p == len(planes):
            if not carry.any():
                return
            plane = np.zeros(full_shape, dtype=np.uint64)
            plane[start:stop] = carry
            planes.append(plane)
            return
        seg = planes[p][start:stop]
        new_carry = seg & carry
        np.bitwise_xor(seg, carry, out=seg)
        carry = new_carry
        if p + 1 == bound:
            return  # counts here are <= max_count: carry is provably 0
        if not carry.any():
            return


def decode_planes(
    planes: Sequence[np.ndarray], n_lanes: int
) -> np.ndarray:
    """Dense per-(row, lane) counts from bit-sliced planes.

    Exactly :meth:`ToggleAccumulator.decode` (same integer counts, same
    ``uint8``-up-to-8-planes dtype rule), but all planes unpack in one
    stacked ``np.unpackbits`` call and combine via a weighted
    plane-axis contraction — one pass instead of an unpack + shift + add
    round-trip per plane, which profiling showed dominated the
    per-plane decode.
    """
    if not planes:
        raise ValueError("cannot decode empty planes")
    n_planes = len(planes)
    dtype = np.uint8 if n_planes <= 8 else np.uint32
    # Planes beyond weight 4 are increasingly sparse (counts >= 8 need a
    # deep glitch train), so only the low planes go through the dense
    # contraction; high planes add their few nonzero rows individually.
    dense = min(n_planes, 3)
    stacked = np.asarray(planes[:dense])
    _, n_rows, n_words = stacked.shape
    bits = np.unpackbits(
        stacked.reshape(dense * n_rows, n_words).view(np.uint8),
        axis=1, bitorder="little",
    )[:, :n_lanes].reshape(dense, n_rows, n_lanes)
    weights = (1 << np.arange(dense, dtype=np.uint64)).astype(dtype)
    if dtype is not np.uint8:
        bits = bits.astype(dtype)
    # uint8 accumulation is exact: counts < 2**n_planes <= 256.
    counts = np.einsum("p,prl->rl", weights, bits)
    for p in range(dense, n_planes):
        plane = planes[p]
        rows = np.flatnonzero(plane.any(axis=1))
        if rows.size == 0:
            continue
        sub = np.unpackbits(
            plane[rows].view(np.uint8), axis=1, bitorder="little"
        )[:, :n_lanes]
        if dtype is not np.uint8:
            sub = sub.astype(dtype)
        counts[rows] += sub * dtype(1 << p)
    return counts


class BitwiseProgram:
    """A netlist lowered to a straight-line tape over packed words.

    Attributes:
        compiled: The source :class:`CompiledNetlist`.
        lut_fold: Whether multi-gate cones were folded into LUTs.
        ops: Settle instruction tape in ascending (level, class) order.
        relax_groups: Per-class windowed groups for unit-delay
            relaxation.
        n_rows: Rows of the program value matrix (== ``n_nets`` unless
            folding removed interior nets).
        n_inputs: Primary input count (rows ``2 .. 2 + n_inputs``).
        row_of_net: ``[n_nets]`` net → row map (``-1`` for folded-away
            interior nets; a permutation when ``lut_fold`` is off).
        net_of_row: ``[n_rows]`` row → net inverse map.
        row_caps: ``[n_rows]`` switched capacitance per row; folded
            interior caps are lumped onto their cone root's row.
        depth: Longest path in gate levels (bounds relaxation steps).
        n_folded_gates: Gates absorbed into LUT cones (0 without folding).
    """

    def __init__(
        self,
        compiled: CompiledNetlist,
        lut_fold: bool = False,
        lut_max_gates: int = DEFAULT_LUT_MAX_GATES,
    ):
        netlist = compiled.netlist
        with span(
            "program.compile", module=netlist.name, lut_fold=lut_fold
        ) as sp:
            self.compiled = compiled
            self.lut_fold = bool(lut_fold)
            self.depth = compiled.depth
            self.n_inputs = len(netlist.inputs)
            levels = compiled.levels

            if lut_fold:
                supergates = _fold_cones(netlist, levels, lut_max_gates)
            else:
                supergates = [
                    _SuperGate(g.output, [g], list(g.inputs))
                    for g in netlist.gates
                ]

            # --- per-class blocks, level-sorted inside each block ---
            blocks: Dict[str, List[_SuperGate]] = {}
            for sg in supergates:
                key = _LUT_BLOCK if len(sg.gates) > 1 else \
                    _canon_spec(sg.gates[0].type_name)[0]
                blocks.setdefault(key, []).append(sg)
            for members in blocks.values():
                members.sort(
                    key=lambda sg: (int(levels[sg.output]), sg.output)
                )

            # --- row assignment: consts, inputs, then the blocks ---
            gate_base = 2 + self.n_inputs
            n_rows = gate_base + len(supergates)
            row_of_net = np.full(netlist.n_nets, -1, dtype=np.intp)
            row_of_net[CONST0] = ROW_CONST0
            row_of_net[CONST1] = ROW_CONST1
            for j, net in enumerate(netlist.inputs):
                row_of_net[net] = 2 + j
            net_of_row = np.empty(n_rows, dtype=np.intp)
            net_of_row[ROW_CONST0] = CONST0
            net_of_row[ROW_CONST1] = CONST1
            net_of_row[2:gate_base] = netlist.inputs
            next_row = gate_base
            block_rows: Dict[str, Tuple[int, int]] = {}
            for name in sorted(blocks):
                start = next_row
                for sg in blocks[name]:
                    row_of_net[sg.output] = next_row
                    net_of_row[next_row] = sg.output
                    next_row += 1
                block_rows[name] = (start, next_row)
            self.n_rows = n_rows
            self.row_of_net = row_of_net
            self.net_of_row = net_of_row

            # --- relax groups + settle tape per block ---
            # Operands resolve through row_of_net: every operand is a
            # constant, an input, or another supergate's output — never a
            # folded interior (those have fanout 1 inside their own cone).
            self.relax_groups: List[RelaxGroup] = []
            self.ops: List[Instruction] = []
            for name in sorted(blocks):
                members = blocks[name]
                base, _ = block_rows[name]
                block_levels = np.array(
                    [int(levels[sg.output]) for sg in members],
                    dtype=np.intp,
                )
                if name == _LUT_BLOCK:
                    masks = _minterm_masks(
                        [_cone_table(sg) for sg in members]
                    )
                    inv = None
                    out_mask = None
                    pins = [
                        list(sg.inputs)
                        + [CONST0] * (LUT_MAX_INPUTS - len(sg.inputs))
                        for sg in members
                    ]
                    kind, disp = "lut", "LUT"
                else:
                    masks = None
                    specs = [
                        _canon_spec(sg.gates[0].type_name)
                        for sg in members
                    ]
                    pins = [
                        list(sg.gates[0].inputs)
                        + [spec[1]] * (3 - len(sg.gates[0].inputs))
                        for sg, spec in zip(members, specs)
                    ]
                    inv, _ = _inv_masks(np.array(
                        [spec[2] for spec in specs], dtype=bool
                    ))
                    out_bits = np.array(
                        [spec[3] for spec in specs], dtype=bool
                    )
                    out_mask = None if not out_bits.any() else np.where(
                        out_bits, _ALL_ONES, np.uint64(0)
                    ).reshape(-1, 1)
                    kind, disp = "op", name
                in_rows = row_of_net[np.array(pins, dtype=np.intp).T]
                if in_rows.size and in_rows.min() < 0:
                    raise AssertionError(
                        "operand resolves to a folded-away row"
                    )
                level_first = [
                    int(v) for v in np.searchsorted(
                        block_levels, np.arange(self.depth + 2)
                    )
                ]
                self.relax_groups.append(RelaxGroup(
                    kind=kind, name=disp, inv=inv, out_mask=out_mask,
                    masks=masks, in_rows=in_rows, base=base,
                    size=len(members), level_first=level_first,
                ))
                # Consecutive equal-level runs become tape instructions
                # (contiguous row slices because the block is
                # level-sorted).
                i = 0
                while i < len(members):
                    j = i
                    while (
                        j < len(members)
                        and block_levels[j] == block_levels[i]
                    ):
                        j += 1
                    self.ops.append(Instruction(
                        level=int(block_levels[i]), kind=kind, name=disp,
                        inv=(None, None, None) if inv is None else tuple(
                            m if m is None else m[i:j] for m in inv
                        ),
                        out_mask=None if out_mask is None
                        else out_mask[i:j],
                        masks=None if masks is None else [
                            m if m is None else m[i:j] for m in masks
                        ],
                        in_rows=in_rows[:, i:j],
                        start=base + i, stop=base + j,
                        n_gates=sum(len(sg.gates) for sg in members[i:j]),
                    ))
                    i = j
            # Ascending level; every operand is written by an earlier
            # instruction (strictly lower level) or is a const/input row.
            self.ops.sort(key=lambda op: (op.level, op.name))

            # --- per-row capacitance (folded interiors lump onto root) ---
            caps = compiled.net_caps
            row_caps = caps[net_of_row].copy()
            self.n_folded_gates = 0
            for sg in supergates:
                if len(sg.gates) > 1:
                    self.n_folded_gates += len(sg.gates) - 1
                    for gate in sg.gates[:-1]:
                        row_caps[row_of_net[sg.output]] += caps[gate.output]
            self.row_caps = row_caps

            n_lut = sum(1 for op in self.ops if op.kind == "lut")
            sp.set(
                instructions=len(self.ops), lut_instructions=n_lut,
                rows=self.n_rows, relax_groups=len(self.relax_groups),
                folded_gates=self.n_folded_gates,
            )
        EVENTS.program_compiles.inc()
        EVENTS.program_instructions.inc(len(self.ops) - n_lut, kind="op")
        if n_lut:
            EVENTS.program_instructions.inc(n_lut, kind="lut")

    # ------------------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        return len(self.ops)

    @property
    def max_planes(self) -> int:
        """Toggle-plane count that provably suffices for one relaxation.

        A row toggles at most once per step plus once at the input
        application, so counts stay ``<= depth + 1``.
        """
        return max(1, (self.depth + 1).bit_length())

    def describe(self) -> Dict[str, int]:
        """Compact structural summary (for spans, benchmarks, tests)."""
        return {
            "instructions": len(self.ops),
            "lut_instructions": sum(
                1 for op in self.ops if op.kind == "lut"
            ),
            "relax_groups": len(self.relax_groups),
            "rows": self.n_rows,
            "folded_gates": self.n_folded_gates,
            "depth": self.depth,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def settle(self, packed_inputs: np.ndarray, n_words: int) -> np.ndarray:
        """Zero-delay settle: one ascending pass over the tape.

        Args:
            packed_inputs: ``[n_inputs, n_words]`` packed input words.
            n_words: Word count of the lane layout.

        Returns:
            ``[n_rows, n_words]`` settled program-ordered value matrix.
        """
        values = np.zeros((self.n_rows, n_words), dtype=np.uint64)
        values[ROW_CONST1] = _ALL_ONES
        values[2:2 + self.n_inputs] = packed_inputs
        for op in self.ops:
            values[op.start:op.stop] = op.evaluate(values)
        return values

    def relax(
        self,
        settled: np.ndarray,
        new_inputs: np.ndarray,
        max_steps: Optional[int] = None,
        count_inputs: bool = True,
        native: Optional[bool] = None,
        planes_buffer: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, ToggleAccumulator, int]:
        """Unit-delay relaxation after an input transition.

        Windowed-synchronous: step ``t`` stages the evaluation of each
        class block's level-``>= t`` suffix against the step ``t - 1``
        snapshot, then applies all writes — identical dynamics to the
        other engines over the gates that can still change, so toggle
        counts are bit-identical when ``lut_fold`` is off.  Terminates at
        the first unchanged step (at most ``depth`` steps on any acyclic
        network).

        Args:
            settled: ``[n_rows, n_words]`` settled values (not mutated).
            new_inputs: ``[n_inputs, n_words]`` packed new input words.
            max_steps: Safety bound kept for API parity with the other
                engines; the window makes more than ``depth`` steps
                structurally impossible.
            count_inputs: Count the input application itself as toggles.
            native: ``None`` (default) uses the optional C kernel of
                :mod:`repro.circuit.native` when it is available and the
                program has no LUT groups, falling back to the numpy
                loop otherwise; ``False`` forces the numpy loop;
                ``True`` demands the native kernel (``RuntimeError``
                when unavailable).  Both paths are all-integer and
                produce bit-identical results.
            planes_buffer: Optional caller-owned ``[max_planes, n_rows,
                n_words]`` ``uint64`` buffer the native path re-zeroes
                and fills instead of allocating (the returned
                accumulator's planes are then views into it, valid until
                the caller's next reuse).  Ignored on the numpy path or
                on a shape mismatch.

        Returns:
            ``(final_values, accumulator, steps)`` — the accumulator's
            planes are program-row-ordered; permute with
            :attr:`row_of_net` and decode (:func:`decode_planes`) for
            net-ordered counts.
        """
        if max_steps is None:
            max_steps = 4 * self.depth + 8
        if settled.shape[0] != self.n_rows:
            raise ValueError(
                f"settled must have {self.n_rows} rows, got {settled.shape}"
            )
        full_shape = settled.shape
        n_words = settled.shape[1]
        values = settled.copy()

        in_stop = 2 + self.n_inputs
        diff_in = values[2:in_stop] ^ new_inputs
        if not diff_in.any():
            # Unchanged inputs: the settled state is already the unique
            # fixpoint, nothing can toggle.
            return values, ToggleAccumulator(), 0

        tables = None
        if native is not False and max_steps >= self.depth:
            tables = native_tables(self)
            if native is True and tables is None:
                raise RuntimeError(
                    f"native relax kernel unavailable: {native_status()}"
                )
        if tables is not None:
            # One zeroed [MAXP, R, W] buffer instead of grow-on-demand
            # planes: a row's toggle count is bounded by depth + 1 (one
            # toggle per step plus the input application), so
            # bit_length(depth + 1) planes always suffice.
            shape = (self.max_planes,) + full_shape
            if planes_buffer is not None and planes_buffer.shape == shape:
                planes_buf = planes_buffer
                planes_buf.fill(0)
            else:
                planes_buf = np.zeros(shape, np.uint64)
            n_planes = 0
            if count_inputs:
                planes_buf[0, 2:in_stop] = diff_in
                n_planes = 1
            values[2:in_stop] = new_inputs
            steps, evals, n_used = relax_native(
                tables, values, np.empty_like(values), planes_buf,
                n_planes,
            )
            EVENTS.program_steps.inc(steps)
            EVENTS.program_evals.inc(evals)
            accumulator = ToggleAccumulator()
            accumulator.planes = [planes_buf[p] for p in range(n_used)]
            return values, accumulator, steps

        planes: List[np.ndarray] = []
        if count_inputs:
            _fold_slice(planes, full_shape, 2, in_stop, diff_in, 1)
        values[2:in_stop] = new_inputs

        groups = self.relax_groups
        steps = 0
        evals = 0
        for t in range(1, self.depth + 1):
            if t > max_steps:
                raise RuntimeError(
                    f"unit-delay relaxation of "
                    f"{self.compiled.netlist.name} did not settle within "
                    f"{max_steps} steps"
                )
            # Stage all reads (and diffs) against the step t-1
            # snapshot...
            staged = []
            for group in groups:
                k = group.level_first[t]
                if k >= group.size:
                    continue
                evals += 1
                diff = group.eval_diff(values, k, n_words)
                if diff is not None:
                    staged.append((group, k, diff))
            # ...then apply all writes at once (synchronous step).
            if not staged:
                break
            for group, k, diff in staged:
                s = group.base + k
                e = group.base + group.size
                _fold_slice(planes, full_shape, s, e, diff, t)
                np.bitwise_xor(values[s:e], diff, out=values[s:e])
            steps = t
        EVENTS.program_steps.inc(steps)
        EVENTS.program_evals.inc(evals)
        accumulator = ToggleAccumulator()
        accumulator.planes = planes
        return values, accumulator, steps

    # ------------------------------------------------------------------
    def evaluate_outputs(self, input_bits: np.ndarray) -> np.ndarray:
        """``[n_patterns, n_outputs]`` output bits (functional check).

        Works for folded programs too — folding is exact for settled
        values, only glitch timing is approximated.
        """
        input_bits = np.asarray(input_bits, dtype=bool)
        if input_bits.ndim != 2 or input_bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"input_bits must be [n_patterns, {self.n_inputs}], "
                f"got {input_bits.shape}"
            )
        n_lanes = input_bits.shape[0]
        n_words = n_words_for(max(n_lanes, 1))
        values = self.settle(pack_lanes(input_bits.T, n_words), n_words)
        output_rows = self.row_of_net[
            np.asarray(self.compiled.netlist.outputs, dtype=np.intp)
        ]
        return unpack_lanes(values[output_rows], n_lanes).T.astype(bool)


def compile_program(
    compiled: CompiledNetlist,
    lut_fold: bool = False,
    lut_max_gates: int = DEFAULT_LUT_MAX_GATES,
) -> BitwiseProgram:
    """Compile (and memoize) the bitwise program for a netlist.

    Programs are cached on the :class:`CompiledNetlist` instance, keyed
    by the folding configuration, so repeated chunked simulation pays
    compilation once.
    """
    cache = compiled.__dict__.setdefault("_programs", {})
    key = (bool(lut_fold), int(lut_max_gates))
    program = cache.get(key)
    if program is None:
        program = BitwiseProgram(
            compiled, lut_fold=lut_fold, lut_max_gates=lut_max_gates
        )
        cache[key] = program
    return program
