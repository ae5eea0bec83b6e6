"""Datapath power budgeting over dataflow graphs.

:class:`DatapathPower` binds every operator of a
:class:`~repro.stats.propagate.DataflowGraph` to a datapath module and its
characterized Hd model, then produces power budgets at three fidelity
levels:

1. :meth:`estimate_analytic` — word statistics only (Section 6's fast
   path: propagation + Eq. 18 distributions + macro-models);
2. :meth:`estimate_from_words` — word-level functional simulation of the
   graph, bit-level Hd extraction, macro-model lookup (no gate
   simulation);
3. :meth:`reference_from_words` — full gate-level power simulation of
   every bound module (the validation yardstick).

Operator-to-module defaults: ``add``/``sub`` map to ripple adder and
subtractor, ``delay`` to a register bank, ``mux`` to a word multiplexer and
``cmul`` to the ``constant_multiplier[c=…]`` family (coefficients quantized
to ``frac_bits`` fractional bits).  Nodes are bound by spec string through
a :class:`~repro.Session`'s registry: the models ``Session.characterize``
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api import Session
from ..circuit.power import PowerSimulator
from ..core.distribution import hd_distribution_from_dbt, compose_hd_distributions
from ..core.events import classify_transitions
from ..signals.encoding import saturate, to_unsigned
from ..stats.dbt import DbtModel
from ..stats.propagate import DataflowGraph

DEFAULT_OP_KINDS: Dict[str, str] = {
    "add": "ripple_adder",
    "sub": "subtractor",
    "delay": "register_bank",
    "mux": "mux_word",
}


@dataclass(frozen=True)
class NodePower:
    """Average per-cycle charge attributed to one operator."""

    node: str
    kind: str
    width: int
    average_charge: float


@dataclass(frozen=True)
class PowerBudget:
    """A per-node budget plus its method label."""

    method: str
    nodes: Tuple[NodePower, ...]

    @property
    def total(self) -> float:
        return float(sum(n.average_charge for n in self.nodes))

    def by_node(self) -> Dict[str, NodePower]:
        return {n.node: n for n in self.nodes}

    def render(self) -> str:
        lines = [f"power budget ({self.method})"]
        for n in self.nodes:
            lines.append(
                f"  {n.node:16s} {n.kind:26s} w={n.width:<3d} "
                f"{n.average_charge:10.2f}"
            )
        lines.append(f"  {'TOTAL':16s} {'':26s} {'':5s} {self.total:10.2f}")
        return "\n".join(lines)


class DatapathPower:
    """Bind a dataflow graph to macro-models and budget its power.

    Args:
        graph: The dataflow graph (propagated or not; ``propagate`` is
            invoked on demand).
        session: The :class:`~repro.Session` whose registry characterizes
            (or loads from its cache) every node's model; its config
            carries the pattern budget, seed and simulator settings.
        default_width: Operand width used for nodes without an explicit
            :meth:`set_width`.
        op_kinds: Override of the operator-to-module-kind mapping (any
            module spec string, e.g. ``{"add": "trunc_adder[k=2]"}``).
        frac_bits: Fractional bits for quantizing ``cmul`` coefficients.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        session: Optional[Session] = None,
        default_width: int = 8,
        op_kinds: Optional[Dict[str, str]] = None,
        frac_bits: int = 8,
    ):
        self.graph = graph
        self.session = session if session is not None else Session()
        self.default_width = default_width
        self.op_kinds = dict(DEFAULT_OP_KINDS)
        if op_kinds:
            self.op_kinds.update(op_kinds)
        self.frac_bits = frac_bits
        self._widths: Dict[str, int] = {}
        self._propagated = False

    # ------------------------------------------------------------------
    def set_width(self, node: str, width: int) -> None:
        """Fix the operand width used for one operator node."""
        if width < 1:
            raise ValueError("width must be >= 1")
        self._widths[node] = width

    def width_of(self, node: str) -> int:
        return self._widths.get(node, self.default_width)

    def operator_nodes(self) -> List[str]:
        """Nodes that consume datapath power (everything but inputs)."""
        return [
            name
            for name in self.graph.names()
            if self.graph.node(name).op != "input"
        ]

    def spec_of(self, name: str) -> str:
        """Module spec string bound to one operator node."""
        node = self.graph.node(name)
        if node.op == "cmul":
            mantissa = int(round(node.coefficient * (1 << self.frac_bits)))
            return f"constant_multiplier[c={mantissa}]"
        return self.op_kinds[node.op]

    def binding(self, name: str):
        """The registry's served model (module + estimator) for a node."""
        return self.session.registry().get(
            self.spec_of(name), self.width_of(name), mode="exact"
        )

    # ------------------------------------------------------------------
    # Path 1: fully analytic
    # ------------------------------------------------------------------
    def estimate_analytic(self) -> PowerBudget:
        """Budget from propagated word statistics only (no simulation)."""
        if not self._propagated:
            self.graph.propagate()
            self._propagated = True
        rows: List[NodePower] = []
        for name in self.operator_nodes():
            node = self.graph.node(name)
            served = self.binding(name)
            width = self.width_of(name)
            pmfs = []
            for src in node.inputs:
                stats = self.graph.stats(src)
                pmfs.append(
                    hd_distribution_from_dbt(
                        DbtModel.from_wordstats(stats, width)
                    )
                )
            if node.op == "mux":
                # Select bit: Bernoulli(p) toggles with rate 2p(1-p).
                p = node.select_prob
                toggle = 2.0 * p * (1.0 - p)
                pmfs.append(np.array([1.0 - toggle, toggle]))
            pmf = compose_hd_distributions(pmfs)
            charge = served.estimator.estimate_from_distribution(
                _fit_length(pmf, served.module.input_bits + 1)
            ).average_charge
            rows.append(NodePower(name, served.kind, width, charge))
        return PowerBudget("analytic", tuple(rows))

    # ------------------------------------------------------------------
    # Path 2: word-level simulation + macro-models
    # ------------------------------------------------------------------
    def _operand_bits(
        self, name: str, values: Dict[str, np.ndarray]
    ) -> np.ndarray:
        node = self.graph.node(name)
        width = self.width_of(name)
        module = self.binding(name).module
        operands: List[np.ndarray] = []
        for src in node.inputs:
            words = saturate(values[src], width)
            operands.append(to_unsigned(words, width))
        if node.op == "mux":
            operands.append(
                values[name + "$select"].astype(np.int64)
            )
        return module.pack_inputs(*operands)

    def estimate_from_words(
        self, inputs: Dict[str, np.ndarray], seed: int = 0
    ) -> PowerBudget:
        """Budget from word-level graph simulation + macro-models."""
        values = self.graph.simulate(inputs, seed=seed)
        rows: List[NodePower] = []
        for name in self.operator_nodes():
            served = self.binding(name)
            bits = self._operand_bits(name, values)
            events = classify_transitions(bits)
            model = served.estimator.model
            charge = float(model.predict_cycle(events.hd).mean())
            rows.append(
                NodePower(name, served.kind, self.width_of(name), charge)
            )
        return PowerBudget("word-level + macro-model", tuple(rows))

    # ------------------------------------------------------------------
    # Path 3: gate-level reference
    # ------------------------------------------------------------------
    def reference_from_words(
        self, inputs: Dict[str, np.ndarray], seed: int = 0
    ) -> PowerBudget:
        """Budget from gate-level simulation of every bound module."""
        values = self.graph.simulate(inputs, seed=seed)
        config = self.session.config
        rows: List[NodePower] = []
        for name in self.operator_nodes():
            served = self.binding(name)
            bits = self._operand_bits(name, values)
            simulator = PowerSimulator(
                served.module.compiled,
                glitch_aware=config.glitch_aware,
                glitch_weight=config.glitch_weight,
                engine=config.engine,
            )
            charge = simulator.simulate(bits).average_charge
            rows.append(
                NodePower(name, served.kind, self.width_of(name), charge)
            )
        return PowerBudget("gate-level reference", tuple(rows))


def _fit_length(pmf: np.ndarray, length: int) -> np.ndarray:
    """Pad or fold a pmf to the model's class count.

    Composition can yield support beyond a module's input bit count when
    operand widths were clipped; excess mass folds onto the top class.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if len(pmf) == length:
        return pmf
    if len(pmf) < length:
        return np.concatenate([pmf, np.zeros(length - len(pmf))])
    folded = pmf[:length].copy()
    folded[-1] += pmf[length:].sum()
    return folded
