"""End-to-end datapath budgeting (the Section 6 use case, productized).

A 4-tap FIR filter is bound to library modules; the fully analytic budget
(word statistics + Eq. 18 distributions + macro-models — zero simulation of
the workload) is validated against the word-level macro-model path and the
gate-level reference.
"""

import numpy as np

from .conftest import SMALL, run_once
from repro import Session
from repro.eval import ExperimentConfig
from repro.flow import DatapathPower
from repro.signals import ar1_gaussian
from repro.stats import DataflowGraph, word_stats


def test_fir_budget(benchmark):
    n = 2000 if SMALL else 6000
    n_char = 1500 if SMALL else 4000
    x = ar1_gaussian(n, rho=0.93, sigma=26.0, seed=21)

    def run():
        g = DataflowGraph()
        g.add_input("x", word_stats(x))
        g.delay("x1", "x")
        g.delay("x2", "x1")
        g.delay("x3", "x2")
        for k, c in enumerate((0.25, 0.75, 0.75, 0.25)):
            g.cmul(f"p{k}", f"x{k}" if k else "x", c)
        g.add("s01", "p0", "p1")
        g.add("s23", "p2", "p3")
        g.add("y", "s01", "s23")
        dp = DatapathPower(
            g,
            Session(config=ExperimentConfig(
                n_characterization=n_char, seed=5
            )),
            default_width=8,
        )
        analytic = dp.estimate_analytic()
        word = dp.estimate_from_words({"x": x})
        reference = dp.reference_from_words({"x": x})
        return analytic, word, reference

    analytic, word, reference = run_once(benchmark, run)
    print()
    print(reference.render())
    print(analytic.render())
    print(word.render())
    err_analytic = (analytic.total / reference.total - 1) * 100
    err_word = (word.total / reference.total - 1) * 100
    print(f"  analytic total error: {err_analytic:+.1f}%")
    print(f"  word-level total error: {err_word:+.1f}%")

    assert abs(err_analytic) < 30
    assert abs(err_word) < 40
    # Arithmetic (adders + non-trivial constant multipliers) dominates the
    # budget; the pipeline registers are a small fraction.
    for budget in (analytic, reference):
        nodes = budget.by_node()
        registers = sum(
            p.average_charge for p in nodes.values()
            if p.kind == "register_bank"
        )
        assert registers < 0.25 * budget.total
        # Power-of-two coefficients are free (pure shifts).
        assert nodes["p0"].average_charge == 0.0
        assert nodes["p1"].average_charge > 0.0
