"""Design-level power budgeting: dataflow graphs bound to Session models."""

from .graph_io import graph_from_dict, graph_to_dict, load_graph
from .power import DEFAULT_OP_KINDS, DatapathPower, NodePower, PowerBudget

__all__ = [
    "DEFAULT_OP_KINDS",
    "DatapathPower",
    "NodePower",
    "PowerBudget",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph",
]
