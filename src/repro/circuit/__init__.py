"""Gate-level circuit substrate: netlists, simulation and power accounting.

This subpackage is the offline stand-in for the transistor-level power
simulator (PowerMill) and the structural views of the Synopsys DesignWare
modules used in the paper.  See DESIGN.md section 2 for the substitution
rationale.
"""

from .builder import NetlistBuilder
from .compiled import CompiledNetlist
from .hotspots import NetHotspot, net_power_breakdown, render_hotspots
from .netlist import CONST0, CONST1, Gate, Netlist, NetlistError
from .packed import (
    PACKED_AVAILABLE,
    ToggleAccumulator,
    pack_lanes,
    popcount,
    unpack_lanes,
)
from .native import native_status
from .power import ENGINES, PowerSimulator, PowerTrace, SimulationStats
from .program import BitwiseProgram, compile_program
from .simulate import (
    evaluate_outputs,
    functional_values,
    unit_delay_transition,
    zero_delay_toggles,
)
from .technology import GATE_TYPES, GateType, gate_type
from .units import CAP_UNIT_FARAD

__all__ = [
    "BitwiseProgram",
    "CAP_UNIT_FARAD",
    "CONST0",
    "CONST1",
    "CompiledNetlist",
    "ENGINES",
    "Gate",
    "GateType",
    "GATE_TYPES",
    "NetHotspot",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "PACKED_AVAILABLE",
    "PowerSimulator",
    "PowerTrace",
    "SimulationStats",
    "ToggleAccumulator",
    "compile_program",
    "evaluate_outputs",
    "functional_values",
    "gate_type",
    "native_status",
    "net_power_breakdown",
    "pack_lanes",
    "popcount",
    "render_hotspots",
    "unpack_lanes",
    "zero_delay_toggles",
]

