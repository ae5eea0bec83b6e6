"""Model accuracy against the gate-level reference on held-out data.

Computed outside every timed region.  The evaluation streams use a fixed
seed, so the number moves only when the fitted coefficients do: a speed-up
that costs accuracy shows here.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.circuit.power import PowerSimulator
from repro.core.events import classify_transitions
from repro.core.metrics import average_error
from repro.signals.registry import make_operand_streams
from repro.signals.streams import module_stimulus

#: Held-out data types: uncorrelated random words and speech-like words.
EVAL_TYPES = ("I", "III")
EVAL_ROWS = 2000
EVAL_SEED = 4242


def abs_errors(module, model, enhanced=None) -> Iterable[float]:
    """|average error| (%) of one model per held-out data type.

    ``enhanced``, when given, is used instead of the basic ``model``.
    """
    simulator = PowerSimulator(module.compiled)
    for data_type in EVAL_TYPES:
        streams = make_operand_streams(
            module, data_type, EVAL_ROWS, seed=EVAL_SEED
        )
        bits = module_stimulus(module, streams)
        reference = simulator.simulate(bits).charge
        events = classify_transitions(bits)
        if enhanced is not None:
            estimate = enhanced.predict_cycle(events.hd, events.stable_zeros)
        else:
            estimate = model.predict_cycle(events.hd)
        yield abs(average_error(estimate, reference))


def mean_abs_error_pct(
    fitted: Iterable[Tuple[object, object, Optional[object]]]
) -> float:
    """Mean |average error| over ``(module, model, enhanced)`` triples."""
    errors = [e for triple in fitted for e in abs_errors(*triple)]
    return float(np.mean(errors))
