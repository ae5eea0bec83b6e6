"""Module registry: the DesignWare-surrogate component library.

:func:`make_module` builds a :class:`DatapathModule` — netlist plus golden
integer semantics plus the structural complexity features Section 5 of the
paper regresses against.

Width convention (DESIGN.md section 4): the ``width`` argument is the
*operand* width; ``DatapathModule.input_bits`` is the total number of module
input bits ``m`` the Hamming distance ranges over (``2w`` for two-operand
modules, ``w`` for absval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.compiled import CompiledNetlist
from ..circuit.netlist import Netlist
from .spec import ParamSpec, resolve_spec
from .absval import absval as _absval_fn, golden_absval as _golden_absval
from .approx import (
    golden_lor_adder as _golden_lor_adder,
    golden_seg_adder as _golden_seg_adder,
    golden_trunc_adder as _golden_trunc_adder,
    lor_adder as _lor_adder,
    lor_adder_error_bound as _lor_bound,
    seg_adder as _seg_adder,
    seg_adder_error_bound as _seg_bound,
    trunc_adder as _trunc_adder,
    trunc_adder_error_bound as _trunc_bound,
)
from .rewrite import (
    csa_reordered_multiplier as _csa_reordered_fn,
    mac_reordered as _mac_reordered_fn,
)
from .adders import (
    carry_select_adder as _carry_select_adder,
    cla_adder as _cla_adder,
    kogge_stone_adder as _kogge_stone_adder,
    golden_adder as _golden_adder,
    golden_incrementer as _golden_incrementer,
    golden_subtractor as _golden_subtractor,
    incrementer as _incrementer,
    ripple_adder as _ripple_adder,
    ripple_subtractor as _ripple_subtractor,
)
from .datapath import (
    alu as _alu_fn,
    barrel_shifter as _barrel_shifter_fn,
    comparator as _comparator_fn,
    golden_alu as _golden_alu,
    golden_barrel_shifter as _golden_barrel_shifter,
    golden_comparator as _golden_comparator,
    golden_mux_word as _golden_mux_word,
    mux_word as _mux_word_fn,
)
from .dsp import (
    golden_leading_zero_counter as _golden_lzc,
    golden_register_bank as _golden_register_bank,
    register_bank as _register_bank_fn,
    golden_mac as _golden_mac,
    golden_min_max as _golden_min_max,
    golden_parity as _golden_parity,
    golden_popcount as _golden_popcount,
    leading_zero_counter as _lzc_fn,
    mac as _mac_fn,
    min_max as _min_max_fn,
    parity as _parity_fn,
    popcount as _popcount_fn,
)
from .multipliers import (
    booth_wallace_multiplier as _booth_wallace_fn,
    constant_multiplier as _constant_multiplier_fn,
    csa_multiplier as _csa_multiplier_fn,
    dadda_multiplier as _dadda_fn,
    golden_constant_multiplier as _golden_constant_multiplier,
    golden_multiplier as _golden_multiplier,
)


@dataclass
class DatapathModule:
    """A generated datapath component ready for simulation and modeling.

    Attributes:
        kind: Registry name (e.g. ``"csa_multiplier"``).
        operand_specs: ``(name, width)`` per operand, in input-vector order.
        netlist: The structural netlist.
        golden: Integer reference function: takes one unsigned bit-pattern
            int per operand, returns the output bit pattern.  Always the
            *structural* truth — for approximate variants it computes the
            approximate result the netlist produces.
        output_width: Number of output bits.
        exact: For approximate variants, the parent kind's exact integer
            reference (error per transition is ``exact(...) -
            golden(...)``); ``None`` when the golden is already exact.
        params: Validated variant parameters (empty for plain kinds).
    """

    kind: str
    operand_specs: Tuple[Tuple[str, int], ...]
    netlist: Netlist
    golden: Callable[..., int]
    output_width: int
    _compiled: Optional[CompiledNetlist] = field(default=None, repr=False)
    exact: Optional[Callable[..., int]] = None
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def input_bits(self) -> int:
        """Total input bit count ``m`` (the Hd range is ``0..m``)."""
        return sum(w for _, w in self.operand_specs)

    @property
    def operand_width(self) -> int:
        """Width of the first operand (the paper's table-1 width column)."""
        return self.operand_specs[0][1]

    @property
    def n_operands(self) -> int:
        return len(self.operand_specs)

    @property
    def compiled(self) -> CompiledNetlist:
        """Lazily compiled simulation form (cached)."""
        if self._compiled is None:
            self._compiled = CompiledNetlist(self.netlist)
        return self._compiled

    def pack_inputs(self, *operand_words: np.ndarray) -> np.ndarray:
        """Pack per-operand word arrays into the module input bit matrix.

        Args:
            operand_words: One integer array per operand (unsigned bit
                patterns, i.e. already encoded; use
                :mod:`repro.signals.encoding` for two's complement).

        Returns:
            ``[n_patterns, input_bits]`` boolean matrix, operand ``a`` bits
            first (LSB-first), matching the netlist input order.
        """
        if len(operand_words) != self.n_operands:
            raise ValueError(
                f"{self.kind} has {self.n_operands} operands, "
                f"got {len(operand_words)} word arrays"
            )
        columns = []
        for (name, width), words in zip(self.operand_specs, operand_words):
            words = np.asarray(words, dtype=np.int64)
            if np.any(words < 0) or np.any(words >= (1 << width)):
                raise ValueError(
                    f"operand {name!r} words out of range for {width} bits"
                )
            bits = (words[:, None] >> np.arange(width)) & 1
            columns.append(bits.astype(bool))
        return np.concatenate(columns, axis=1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModuleKind:
    """Registry entry: constructor plus regression metadata.

    Attributes:
        name: Registry key (the family name for parameterized variants).
        build: ``(width) -> DatapathModule`` constructor; variant
            families take the validated params as keyword arguments
            (``(width, **params) -> DatapathModule``).
        complexity_features: Maps the operand width to the complexity
            parameter vector ``M`` of Eq. 9 (e.g. ``[m, 1]`` for the ripple
            adder, ``[m^2, m, 1]`` for the CSA multiplier).
        feature_names: Human-readable names of the features.
        params: Parameter schema (empty for plain kinds).
        parent: Exact parent kind of a variant family (``None`` for
            plain kinds and parent-less families).
        degenerate: ``(params, width) -> bool`` — True when the
            parameters reduce the variant to the exact parent; such
            specs collapse to ``parent`` during resolution.
        error_bound: ``(params, width) -> float`` analytic bound on the
            per-transition ``|exact - approx|`` error (0 for exact
            rewrites).
    """

    name: str
    build: Callable[..., "DatapathModule"]
    complexity_features: Callable[[int], np.ndarray]
    feature_names: Tuple[str, ...]
    params: Tuple[ParamSpec, ...] = ()
    parent: Optional[str] = None
    degenerate: Optional[Callable[[Dict[str, Any], int], bool]] = None
    error_bound: Optional[Callable[[Dict[str, Any], int], float]] = None


def _linear_features(width: int) -> np.ndarray:
    return np.array([width, 1.0])


def _quadratic_features(width: int) -> np.ndarray:
    return np.array([width * width, width, 1.0])


def _build_ripple(width: int) -> DatapathModule:
    netlist = _ripple_adder(width)
    return DatapathModule(
        kind="ripple_adder",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_adder(width),
        output_width=width + 1,
    )


def _build_cla(width: int) -> DatapathModule:
    netlist = _cla_adder(width)
    return DatapathModule(
        kind="cla_adder",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_adder(width),
        output_width=width + 1,
    )


def _build_carry_select(width: int) -> DatapathModule:
    netlist = _carry_select_adder(width)
    return DatapathModule(
        kind="carry_select_adder",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_adder(width),
        output_width=width + 1,
    )


def _build_kogge_stone(width: int) -> DatapathModule:
    netlist = _kogge_stone_adder(width)
    return DatapathModule(
        kind="kogge_stone_adder",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_adder(width),
        output_width=width + 1,
    )


def _build_subtractor(width: int) -> DatapathModule:
    netlist = _ripple_subtractor(width)
    return DatapathModule(
        kind="subtractor",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_subtractor(width),
        output_width=width + 1,
    )


def _build_incrementer(width: int) -> DatapathModule:
    netlist = _incrementer(width)
    return DatapathModule(
        kind="incrementer",
        operand_specs=(("a", width),),
        netlist=netlist,
        golden=_golden_incrementer(width),
        output_width=width + 1,
    )


def _build_absval(width: int) -> DatapathModule:
    netlist = _absval_fn(width)
    return DatapathModule(
        kind="absval",
        operand_specs=(("a", width),),
        netlist=netlist,
        golden=_golden_absval(width),
        output_width=width,
    )


def _build_csa_multiplier(width: int) -> DatapathModule:
    netlist = _csa_multiplier_fn(width, width)
    return DatapathModule(
        kind="csa_multiplier",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_multiplier(width, width),
        output_width=2 * width,
    )


def _build_booth_wallace(width: int) -> DatapathModule:
    netlist = _booth_wallace_fn(width, width)
    return DatapathModule(
        kind="booth_wallace_multiplier",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_multiplier(width, width),
        output_width=2 * width,
    )


def _build_dadda(width: int) -> DatapathModule:
    netlist = _dadda_fn(width, width)
    return DatapathModule(
        kind="dadda_multiplier",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_multiplier(width, width),
        output_width=2 * width,
    )


def _build_comparator(width: int) -> DatapathModule:
    netlist = _comparator_fn(width)
    return DatapathModule(
        kind="comparator",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_comparator(width),
        output_width=2,
    )


def _build_alu(width: int) -> DatapathModule:
    netlist = _alu_fn(width)
    return DatapathModule(
        kind="alu",
        operand_specs=(("a", width), ("b", width), ("op", 2)),
        netlist=netlist,
        golden=_golden_alu(width),
        output_width=width + 1,
    )


def _build_barrel_shifter(width: int) -> DatapathModule:
    netlist = _barrel_shifter_fn(width)
    n_sh = max(1, math.ceil(math.log2(width)))
    return DatapathModule(
        kind="barrel_shifter",
        operand_specs=(("a", width), ("sh", n_sh)),
        netlist=netlist,
        golden=_golden_barrel_shifter(width),
        output_width=width,
    )


def _build_mac(width: int) -> DatapathModule:
    netlist = _mac_fn(width)
    return DatapathModule(
        kind="mac",
        operand_specs=(("a", width), ("b", width), ("c", 2 * width)),
        netlist=netlist,
        golden=_golden_mac(width),
        output_width=2 * width,
    )


def _build_min_max(width: int) -> DatapathModule:
    netlist = _min_max_fn(width)
    return DatapathModule(
        kind="min_max",
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_min_max(width),
        output_width=2 * width,
    )


def _build_popcount(width: int) -> DatapathModule:
    netlist = _popcount_fn(width)
    return DatapathModule(
        kind="popcount",
        operand_specs=(("a", width),),
        netlist=netlist,
        golden=_golden_popcount(width),
        output_width=len(netlist.outputs),
    )


def _build_parity(width: int) -> DatapathModule:
    netlist = _parity_fn(width)
    return DatapathModule(
        kind="parity",
        operand_specs=(("a", width),),
        netlist=netlist,
        golden=_golden_parity(width),
        output_width=1,
    )


def _build_lzc(width: int) -> DatapathModule:
    netlist = _lzc_fn(width)
    return DatapathModule(
        kind="leading_zero_counter",
        operand_specs=(("a", width),),
        netlist=netlist,
        golden=_golden_lzc(width),
        output_width=len(netlist.outputs),
    )


def _build_register_bank(width: int) -> DatapathModule:
    netlist = _register_bank_fn(width)
    return DatapathModule(
        kind="register_bank",
        operand_specs=(("d", width),),
        netlist=netlist,
        golden=_golden_register_bank(width),
        output_width=width,
    )


def _build_mux_word(width: int) -> DatapathModule:
    netlist = _mux_word_fn(width, 2)
    return DatapathModule(
        kind="mux_word",
        operand_specs=(("w0", width), ("w1", width), ("sel", 1)),
        netlist=netlist,
        golden=_golden_mux_word(width, 2),
        output_width=width,
    )


# ----------------------------------------------------------------------
# Parameterized variant families (see docs/MODULES.md)
# ----------------------------------------------------------------------
def _variant_kind(family: str, params: Dict[str, Any]) -> str:
    from .spec import ModuleSpec

    return ModuleSpec(family, tuple(sorted(params.items()))).canonical


def _build_trunc_adder(width: int, k: int) -> DatapathModule:
    netlist = _trunc_adder(width, k)
    return DatapathModule(
        kind=_variant_kind("trunc_adder", {"k": k}),
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_trunc_adder(width, k),
        output_width=width + 1,
        exact=_golden_adder(width),
        params={"k": k},
    )


def _build_lor_adder(width: int, k: int) -> DatapathModule:
    netlist = _lor_adder(width, k)
    return DatapathModule(
        kind=_variant_kind("lor_adder", {"k": k}),
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_lor_adder(width, k),
        output_width=width + 1,
        exact=_golden_adder(width),
        params={"k": k},
    )


def _build_seg_adder(width: int, s: int) -> DatapathModule:
    netlist = _seg_adder(width, s)
    return DatapathModule(
        kind=_variant_kind("seg_adder", {"s": s}),
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_seg_adder(width, s),
        output_width=width + 1,
        exact=_golden_adder(width),
        params={"s": s},
    )


def _build_constant_multiplier(width: int, c: int) -> DatapathModule:
    netlist = _constant_multiplier_fn(width, c)
    out_width = len(netlist.outputs)
    return DatapathModule(
        kind=_variant_kind("constant_multiplier", {"c": c}),
        operand_specs=(("a", width),),
        netlist=netlist,
        golden=_golden_constant_multiplier(width, c, out_width),
        output_width=out_width,
        params={"c": c},
    )


def _build_mac_reordered(width: int, order: str) -> DatapathModule:
    netlist = _mac_reordered_fn(width, order)
    return DatapathModule(
        kind=_variant_kind("mac_reordered", {"order": order}),
        operand_specs=(("a", width), ("b", width), ("c", 2 * width)),
        netlist=netlist,
        golden=_golden_mac(width),
        output_width=2 * width,
        params={"order": order},
    )


def _build_csa_reordered(width: int, order: str) -> DatapathModule:
    netlist = _csa_reordered_fn(width, order)
    return DatapathModule(
        kind=_variant_kind("csa_reordered_multiplier", {"order": order}),
        operand_specs=(("a", width), ("b", width)),
        netlist=netlist,
        golden=_golden_multiplier(width, width),
        output_width=2 * width,
        params={"order": order},
    )


_CUT_PARAM = ParamSpec(
    name="k", type="int", default=1, minimum=0, width_cap="width-1",
    doc="number of approximated low-order bits",
)

_VARIANT_KINDS: Tuple[ModuleKind, ...] = (
    ModuleKind(
        "constant_multiplier", _build_constant_multiplier,
        _linear_features, ("m", "1"),
        params=(ParamSpec(
            name="c", type="int", default=3,
            minimum=-(2 ** 15), maximum=2 ** 15 - 1,
            doc="signed integer constant (CSD shift-add network)",
        ),),
    ),
    ModuleKind(
        "trunc_adder", _build_trunc_adder, _linear_features, ("m", "1"),
        params=(_CUT_PARAM,),
        parent="ripple_adder",
        degenerate=lambda params, width: params["k"] == 0,
        error_bound=lambda params, width: _trunc_bound(width, params["k"]),
    ),
    ModuleKind(
        "lor_adder", _build_lor_adder, _linear_features, ("m", "1"),
        params=(_CUT_PARAM,),
        parent="ripple_adder",
        degenerate=lambda params, width: params["k"] == 0,
        error_bound=lambda params, width: _lor_bound(width, params["k"]),
    ),
    ModuleKind(
        "seg_adder", _build_seg_adder, _linear_features, ("m", "1"),
        params=(ParamSpec(
            name="s", type="int", default=2, minimum=1,
            doc="carry-chain segment length (s >= width is exact)",
        ),),
        parent="ripple_adder",
        degenerate=lambda params, width: params["s"] >= width,
        error_bound=lambda params, width: _seg_bound(width, params["s"]),
    ),
    ModuleKind(
        "mac_reordered", _build_mac_reordered, _quadratic_features,
        ("m^2", "m", "1"),
        params=(ParamSpec(
            name="order", type="choice", default="ba",
            choices=("ab", "ba"),
            doc="operand roles in the partial-product array",
        ),),
        parent="mac",
        degenerate=lambda params, width: params["order"] == "ab",
        error_bound=lambda params, width: 0.0,
    ),
    ModuleKind(
        "csa_reordered_multiplier", _build_csa_reordered,
        _quadratic_features, ("m^2", "m", "1"),
        params=(ParamSpec(
            name="order", type="choice", default="msb",
            choices=("lsb", "msb"),
            doc="partial-product row accumulation order",
        ),),
        parent="csa_multiplier",
        degenerate=lambda params, width: params["order"] == "lsb",
        error_bound=lambda params, width: 0.0,
    ),
)


MODULE_KINDS: Dict[str, ModuleKind] = {
    kind.name: kind
    for kind in (
        ModuleKind("ripple_adder", _build_ripple, _linear_features, ("m", "1")),
        ModuleKind("cla_adder", _build_cla, _linear_features, ("m", "1")),
        ModuleKind(
            "carry_select_adder", _build_carry_select, _linear_features, ("m", "1")
        ),
        ModuleKind(
            "kogge_stone_adder", _build_kogge_stone, _linear_features,
            ("m", "1"),
        ),
        ModuleKind("subtractor", _build_subtractor, _linear_features, ("m", "1")),
        ModuleKind("incrementer", _build_incrementer, _linear_features, ("m", "1")),
        ModuleKind("absval", _build_absval, _linear_features, ("m", "1")),
        ModuleKind(
            "csa_multiplier",
            _build_csa_multiplier,
            _quadratic_features,
            ("m^2", "m", "1"),
        ),
        ModuleKind(
            "booth_wallace_multiplier",
            _build_booth_wallace,
            _quadratic_features,
            ("m^2", "m", "1"),
        ),
        ModuleKind(
            "dadda_multiplier",
            _build_dadda,
            _quadratic_features,
            ("m^2", "m", "1"),
        ),
        ModuleKind("comparator", _build_comparator, _linear_features, ("m", "1")),
        ModuleKind("alu", _build_alu, _linear_features, ("m", "1")),
        ModuleKind(
            "barrel_shifter", _build_barrel_shifter, _linear_features, ("m", "1")
        ),
        ModuleKind("mux_word", _build_mux_word, _linear_features, ("m", "1")),
        ModuleKind("mac", _build_mac, _quadratic_features, ("m^2", "m", "1")),
        ModuleKind("min_max", _build_min_max, _linear_features, ("m", "1")),
        ModuleKind("popcount", _build_popcount, _linear_features, ("m", "1")),
        ModuleKind("parity", _build_parity, _linear_features, ("m", "1")),
        ModuleKind(
            "leading_zero_counter", _build_lzc, _linear_features, ("m", "1")
        ),
        ModuleKind(
            "register_bank", _build_register_bank, _linear_features, ("m", "1")
        ),
        *_VARIANT_KINDS,
    )
}

#: The five module types evaluated in the paper's Table 1.
PAPER_MODULE_KINDS: Tuple[str, ...] = (
    "ripple_adder",
    "cla_adder",
    "absval",
    "csa_multiplier",
    "booth_wallace_multiplier",
)


def module_kinds() -> List[str]:
    """All registered module kind names."""
    return sorted(MODULE_KINDS)


def make_module(
    kind: str,
    width: Optional[int] = None,
    params: Optional[Dict[str, Any]] = None,
) -> DatapathModule:
    """Build a datapath module by registry name (or spec) and width.

    ``kind`` accepts a bare registry name, a canonical spec string
    (``"trunc_adder[k=4]"`` or ``"trunc_adder[k=4]/16"``) or a
    :class:`~repro.modules.spec.ModuleSpec`; ``params`` merges extra
    variant parameters in.  Unknown kinds raise :class:`ValueError`
    naming the nearest matches; degenerate variant parameters build the
    exact parent kind.
    """
    resolved = resolve_spec(kind, width=width, params=params)
    if resolved.width is None:
        raise TypeError(f"make_module({kind!r}): width is required")
    if resolved.params:
        return resolved.entry.build(resolved.width, **resolved.params)
    return resolved.entry.build(resolved.width)


def registry_entry(kind: str) -> ModuleKind:
    """Registry entry for a bare kind or canonical spec string."""
    return resolve_spec(kind).entry


def complexity_features(kind: str, width: int) -> np.ndarray:
    """Complexity parameter vector ``M`` (Eq. 9) for a kind at a width."""
    return registry_entry(kind).complexity_features(width)


def make_rect_multiplier(kind: str, width_a: int, width_b: int) -> DatapathModule:
    """Rectangular (``m1 x m0``) multiplier instance (Section 5, Eq. 8).

    Args:
        kind: ``"csa_multiplier"`` or ``"booth_wallace_multiplier"``.
        width_a: Multiplicand width ``m1``.
        width_b: Multiplier width ``m0``.
    """
    builders = {
        "csa_multiplier": _csa_multiplier_fn,
        "booth_wallace_multiplier": _booth_wallace_fn,
        "dadda_multiplier": _dadda_fn,
    }
    try:
        build = builders[kind]
    except KeyError:
        raise KeyError(
            f"rectangular variants exist for {sorted(builders)}, not {kind!r}"
        ) from None
    netlist = build(width_a, width_b)
    return DatapathModule(
        kind=kind,
        operand_specs=(("a", width_a), ("b", width_b)),
        netlist=netlist,
        golden=_golden_multiplier(width_a, width_b),
        output_width=width_a + width_b,
    )


def rect_complexity_features(width_a: int, width_b: int) -> np.ndarray:
    """Complexity vector of Eq. 8: ``[m1 * m0, m1, 1]``."""
    return np.array([width_a * width_b, width_a, 1.0])
