"""The :class:`Calibration` object: one rescaling for every estimate shape.

A calibration is ``(node, vdd, f_clk)`` resolved against the
:mod:`~repro.tech.nodes` table.  It converts any normalized estimate the
stack produces — a point :class:`~repro.core.estimator.EstimationResult`
(trace, batch, distribution or analytic) or a streaming
:class:`~repro.serve.sessions.RunningEstimate` — into coulombs, joules
and watts, and a compiled netlist's gate inventory into area and leakage:

    Q_cycle [C] = charge_units · C_unit(node) · V_dd
    E_cycle [J] = charge_units · C_unit(node) · V_dd²
    P_dyn   [W] = E_cycle · f_clk
    A       [m²] = gate_units · A_unit(node)
    P_leak  [W] = gate_units · L_unit(node) · V_dd / V_nom

Three operating modes, strictly ordered by how much physics they add:

* ``Calibration()`` — the **identity**: no node, no voltage.
  :meth:`apply` returns its argument unchanged and
  :meth:`physical_block` returns ``None``, so the normalized path is
  bit-identical to a build that never imports this package (a fuzzed
  contract, ``check_calibration`` in docs/VERIFICATION.md).
* ``Calibration.from_spec(vdd=2.5)`` — **legacy voltage-only**: the
  exact numerics of the old ``repro.circuit.OperatingPoint`` (1 fF per
  unit), which this class absorbs — ``repro.circuit`` now serves that
  name through a warn-once deprecation shim.
* ``Calibration.from_spec(node="22nm")`` — **full node calibration**:
  capacitance/area/leakage from the table, ``vdd``/``f_clk`` defaulting
  to the node's nominals, off-nominal values following the Dennard-style
  rules documented in :mod:`~repro.tech.nodes`.

Calibration is post-hoc by design: nothing here touches characterization,
cache keys or the serving registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

import numpy as np

from ..circuit.technology import GATE_TYPES
from ..circuit.units import CAP_UNIT_FARAD, OperatingPoint
from .nodes import TECH_TABLE_VERSION, TechNode, get_node

__all__ = [
    "CalibratedEstimate",
    "Calibration",
    "OperatingPoint",
    "gate_area_units",
]

#: Legacy default clock for voltage-only calibrations — the historical
#: ``OperatingPoint`` default, kept so old paths stay bit-identical.
LEGACY_F_CLK = 50e6


def gate_area_units(netlist: Any) -> float:
    """Size of a netlist in gate units (the capacitance-proxy inventory).

    Accepts a :class:`~repro.circuit.netlist.Netlist`, a
    :class:`~repro.circuit.compiled.CompiledNetlist` or a
    :class:`~repro.modules.library.DatapathModule`.  Each gate contributes
    its library cell's total pin capacitance (``n_inputs · input_cap +
    output_cap``) — the same normalized units the simulator counts charge
    in, so area and energy share one technology scale factor.
    """
    while not hasattr(netlist, "gates"):
        for attribute in ("netlist", "compiled"):
            inner = getattr(netlist, attribute, None)
            if inner is not None:
                netlist = inner
                break
        else:
            raise TypeError(
                f"cannot take a gate inventory of {type(netlist).__name__}"
            )
    total = 0.0
    for gate in netlist.gates:
        cell = GATE_TYPES[gate.type_name]
        total += cell.n_inputs * cell.input_cap + cell.output_cap
    return total


@dataclass(frozen=True)
class CalibratedEstimate:
    """A normalized estimate annotated with its physical-unit readings.

    Attributes:
        normalized: The untouched underlying estimate (an
            ``EstimationResult`` or ``RunningEstimate``).
        node: Node name, or ``None`` for a voltage-only calibration.
        vdd/f_clk: The resolved operating point.
        average_charge_units: The normalized mean cycle charge converted.
        charge_coulombs: Mean charge drawn per cycle.
        energy_joules: Mean energy per cycle (per op).
        power_watts: Average dynamic power at ``f_clk``.
        area_m2: Silicon area (node calibrations with a netlist only).
        leakage_watts: Static power (node calibrations with a netlist).
    """

    normalized: Any
    node: Optional[str]
    vdd: float
    f_clk: float
    average_charge_units: float
    charge_coulombs: float
    energy_joules: float
    power_watts: float
    area_m2: Optional[float] = None
    leakage_watts: Optional[float] = None

    @property
    def total_power_watts(self) -> float:
        """Dynamic plus leakage power (dynamic only without a netlist)."""
        return self.power_watts + (self.leakage_watts or 0.0)

    def to_dict(self) -> Dict[str, Any]:
        block = {
            "table_version": TECH_TABLE_VERSION,
            "node": self.node,
            "vdd": self.vdd,
            "f_clk": self.f_clk,
            "average_charge_units": self.average_charge_units,
            "charge_coulombs": self.charge_coulombs,
            "energy_joules": self.energy_joules,
            "power_watts": self.power_watts,
        }
        if self.area_m2 is not None:
            block["area_m2"] = self.area_m2
            block["leakage_watts"] = self.leakage_watts
            block["total_power_watts"] = self.total_power_watts
        return block


@dataclass(frozen=True)
class Calibration:
    """A resolved ``(node, vdd, f_clk)`` triple; see the module docstring.

    Build through :meth:`from_spec` (which resolves node names and
    defaults), or use the bare constructor with an already-resolved
    :class:`~repro.tech.nodes.TechNode`.
    """

    node: Optional[TechNode] = None
    vdd: Optional[float] = None
    f_clk: Optional[float] = None

    def __post_init__(self):
        if self.vdd is not None and not (0 < self.vdd < np.inf):
            raise ValueError("vdd must be positive and finite")
        if self.f_clk is not None and not (0 < self.f_clk < np.inf):
            raise ValueError("f_clk must be positive and finite")

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        node: Union[str, int, float, TechNode, None] = None,
        vdd: Optional[float] = None,
        f_clk: Optional[float] = None,
    ) -> "Calibration":
        """Resolve user-facing specs (CLI flags, request fields).

        Raises:
            ValueError: Unknown node name or a vdd/f_clk that is not
                positive and finite.
        """
        resolved = None if node is None else get_node(node)
        return cls(
            node=resolved,
            vdd=None if vdd is None else float(vdd),
            f_clk=None if f_clk is None else float(f_clk),
        )

    # ------------------------------------------------------------------
    @property
    def is_identity(self) -> bool:
        """No node and no voltage: physical units are undefined."""
        return self.node is None and self.vdd is None

    @property
    def node_name(self) -> Optional[str]:
        return None if self.node is None else self.node.name

    @property
    def effective_vdd(self) -> float:
        if self.vdd is not None:
            return self.vdd
        if self.node is not None:
            return self.node.nominal_vdd
        raise ValueError(
            "identity calibration has no supply voltage; pass node= or vdd="
        )

    @property
    def effective_f_clk(self) -> float:
        if self.f_clk is not None:
            return self.f_clk
        if self.node is not None:
            return self.node.nominal_f_clk
        return LEGACY_F_CLK

    @property
    def cap_farad(self) -> float:
        """Farads per normalized charge unit under this calibration."""
        if self.node is not None:
            return self.node.cap_per_unit
        return CAP_UNIT_FARAD

    def operating_point(self) -> OperatingPoint:
        """The equivalent legacy ``OperatingPoint`` (voltage/clock only)."""
        return OperatingPoint(
            vdd=self.effective_vdd, f_clk=self.effective_f_clk
        )

    # ------------------------------------------------------------------
    # Scalar/array conversions (the CV² core)
    # ------------------------------------------------------------------
    def charge_coulombs(
        self, charge_units: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Coulombs drawn for a normalized per-cycle charge figure."""
        return np.asarray(charge_units) * self.cap_farad * self.effective_vdd

    def energy_joules(
        self, charge_units: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Joules dissipated for a normalized per-cycle charge figure."""
        return (
            np.asarray(charge_units) * self.cap_farad
            * self.effective_vdd**2
        )

    def power_watts(self, average_charge_units: float) -> float:
        """Average dynamic power for a mean per-cycle charge figure."""
        return (
            float(self.energy_joules(float(average_charge_units)))
            * self.effective_f_clk
        )

    # ------------------------------------------------------------------
    # Netlist inventory → area / leakage (node calibrations only)
    # ------------------------------------------------------------------
    def area_m2(self, netlist: Any) -> float:
        """Silicon area of a netlist's gate inventory at this node."""
        if self.node is None:
            raise ValueError("area requires a technology node (node=...)")
        return gate_area_units(netlist) * self.node.area_per_unit

    def leakage_watts(self, netlist: Any) -> float:
        """Static power of a netlist at this node and supply voltage."""
        if self.node is None:
            raise ValueError("leakage requires a technology node (node=...)")
        return gate_area_units(netlist) * self.node.scaled_leakage_per_unit(
            self.effective_vdd
        )

    # ------------------------------------------------------------------
    # Whole-estimate application
    # ------------------------------------------------------------------
    def apply(self, estimate: Any, netlist: Any = None) -> Any:
        """Calibrate any estimate shape the stack produces.

        Identity calibrations return ``estimate`` unchanged (the same
        object — the normalized path stays bit-identical).  Otherwise the
        result is a :class:`CalibratedEstimate` wrapping it; pass the
        module/netlist to also fill area and leakage (node mode only).
        """
        if self.is_identity:
            return estimate
        average = float(getattr(estimate, "average_charge"))
        area = leakage = None
        if netlist is not None and self.node is not None:
            units = gate_area_units(netlist)
            area = units * self.node.area_per_unit
            leakage = units * self.node.scaled_leakage_per_unit(
                self.effective_vdd
            )
        return CalibratedEstimate(
            normalized=estimate,
            node=self.node_name,
            vdd=self.effective_vdd,
            f_clk=self.effective_f_clk,
            average_charge_units=average,
            charge_coulombs=float(self.charge_coulombs(average)),
            energy_joules=float(self.energy_joules(average)),
            power_watts=self.power_watts(average),
            area_m2=area,
            leakage_watts=leakage,
        )

    def physical_block(
        self, average_charge_units: float, netlist: Any = None
    ) -> Optional[Dict[str, Any]]:
        """The self-describing envelope block for JSON surfaces.

        ``None`` for identity calibrations, so responses without a node
        or voltage stay byte-identical to the pre-calibration protocol.
        """
        if self.is_identity:
            return None

        class _Point:
            average_charge = float(average_charge_units)

        return self.apply(_Point(), netlist=netlist).to_dict()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node_name,
            "vdd": None if self.is_identity else self.effective_vdd,
            "f_clk": self.f_clk if self.is_identity else self.effective_f_clk,
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Calibration":
        """Rebuild from :meth:`to_dict` (session snapshots)."""
        return cls.from_spec(
            node=data.get("node"),
            vdd=data.get("vdd"),
            f_clk=data.get("f_clk"),
        )
