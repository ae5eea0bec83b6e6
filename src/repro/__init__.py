"""repro: Hamming-distance power macro-models for datapath components.

Reproduction of Jochens, Kruse, Schmidt, Nebel, "A New Parameterizable
Power Macro-Model for Datapath Components", DATE 1999.

Subpackages:
    circuit   gate-level substrate: netlists, glitch-aware power
              simulation, hotspots, Verilog I/O, pipelining, units
    modules   parameterizable datapath generators (adders, multipliers,
              absval, MAC, shifters, counters, ...)
    signals   stimulus classes I-V, encodings, bus codes
    stats     word/bit-level statistics, Landman DBT model, dataflow
              statistics propagation, goodness-of-fit metrics
    core      the paper's contribution: Hd power models (basic, enhanced,
              per-operand), characterization, width regression, analytic
              Hd distributions, estimation, adaptation, persistence
    eval      experiment harness reproducing every table and figure
    runtime   characterization service: parallel job fan-out and the
              persistent content-addressed model/trace cache
    flow      dataflow power budgeting over Session-bound models
    opt       model-driven low-power optimization (binding, reordering)
    tech      technology calibration: node tables, physical units
              (coulombs/joules/watts/area/leakage), PAE reports
    cli       the `repro-power` command line

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"

__all__ = [
    # The public facade (PR 5) — the documented front door.
    "Session",
    "api",
    "obs",
    # Subpackages.
    "circuit",
    "cli",
    "core",
    "eval",
    "flow",
    "modules",
    "opt",
    "runtime",
    "serve",
    "signals",
    "stats",
    "tech",
    "verify",
]

_LAZY = {"Session": ("repro.api", "Session")}


def __getattr__(name):
    # Lazy so that ``import repro`` stays light: the facade pulls in
    # numpy-heavy layers only when actually touched.
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        value = getattr(importlib.import_module(module_name), attribute)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
