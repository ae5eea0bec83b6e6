"""DatapathPower: budgets across the three fidelity levels."""

import numpy as np
import pytest

from repro import Session
from repro.eval import ExperimentConfig
from repro.flow import DatapathPower, PowerBudget
from repro.signals import ar1_gaussian
from repro.stats import DataflowGraph, WordStats, word_stats


def _session(n_patterns, seed):
    return Session(config=ExperimentConfig(
        n_characterization=n_patterns, seed=seed
    ))


@pytest.fixture(scope="module")
def fir_setup():
    x = ar1_gaussian(4000, rho=0.9, sigma=25.0, seed=1)
    g = DataflowGraph()
    g.add_input("x", word_stats(x))
    g.delay("x1", "x")
    g.cmul("p0", "x", 0.4)
    g.cmul("p1", "x1", 0.4)
    g.add("y", "p0", "p1")
    return x, DatapathPower(g, _session(1500, 3), default_width=8)


def test_operator_nodes(fir_setup):
    _, dp = fir_setup
    assert dp.operator_nodes() == ["x1", "p0", "p1", "y"]


def test_analytic_budget_structure(fir_setup):
    _, dp = fir_setup
    budget = dp.estimate_analytic()
    assert isinstance(budget, PowerBudget)
    assert budget.method == "analytic"
    assert {n.node for n in budget.nodes} == {"x1", "p0", "p1", "y"}
    assert budget.total > 0
    by_node = budget.by_node()
    assert by_node["y"].kind == "ripple_adder"
    assert by_node["x1"].kind == "register_bank"
    assert "constant_multiplier" in by_node["p0"].kind


def test_word_budget_matches_reference_trend(fir_setup):
    x, dp = fir_setup
    word = dp.estimate_from_words({"x": x})
    ref = dp.reference_from_words({"x": x})
    assert word.total == pytest.approx(ref.total, rel=0.5)
    # the register bank is modeled near-exactly (pure Hd proportionality)
    w = word.by_node()["x1"].average_charge
    r = ref.by_node()["x1"].average_charge
    assert w == pytest.approx(r, rel=0.05)


def test_analytic_close_to_reference_total(fir_setup):
    x, dp = fir_setup
    analytic = dp.estimate_analytic()
    ref = dp.reference_from_words({"x": x})
    assert analytic.total == pytest.approx(ref.total, rel=0.35)


def test_render(fir_setup):
    _, dp = fir_setup
    text = dp.estimate_analytic().render()
    assert "TOTAL" in text and "ripple_adder" in text


def test_set_width(fir_setup):
    _, dp = fir_setup
    dp.set_width("y", 10)
    assert dp.width_of("y") == 10
    budget = dp.estimate_analytic()
    assert budget.by_node()["y"].width == 10
    dp.set_width("y", 8)
    with pytest.raises(ValueError):
        dp.set_width("y", 0)


def test_mux_node_budgeting():
    g = DataflowGraph()
    g.add_input("a", WordStats(0.0, 400.0, 0.5))
    g.add_input("b", WordStats(0.0, 400.0, 0.5))
    g.mux("m", "a", "b", select_prob=0.5)
    dp = DatapathPower(g, _session(1000, 5),
                       default_width=4)
    analytic = dp.estimate_analytic()
    assert analytic.by_node()["m"].kind == "mux_word"
    rng = np.random.default_rng(0)
    inputs = {
        "a": rng.normal(0, 20, 2000),
        "b": rng.normal(0, 20, 2000),
    }
    word = dp.estimate_from_words(inputs, seed=9)
    ref = dp.reference_from_words(inputs, seed=9)
    assert word.by_node()["m"].average_charge == pytest.approx(
        ref.by_node()["m"].average_charge, rel=0.4
    )


def test_sub_node_uses_subtractor():
    g = DataflowGraph()
    g.add_input("a", WordStats(0.0, 100.0, 0.0))
    g.add_input("b", WordStats(0.0, 100.0, 0.0))
    g.sub("d", "a", "b")
    dp = DatapathPower(g, _session(800, 6),
                       default_width=6)
    assert dp.estimate_analytic().by_node()["d"].kind == "subtractor"


def test_op_kind_override():
    g = DataflowGraph()
    g.add_input("a", WordStats(0.0, 100.0, 0.0))
    g.add_input("b", WordStats(0.0, 100.0, 0.0))
    g.add("s", "a", "b")
    dp = DatapathPower(
        g, _session(800, 7), default_width=6,
        op_kinds={"add": "cla_adder"},
    )
    assert dp.estimate_analytic().by_node()["s"].kind == "cla_adder"


def test_cmul_power_of_two_is_free():
    g = DataflowGraph()
    g.add_input("a", WordStats(0.0, 100.0, 0.0))
    g.cmul("h", "a", 0.5)  # exactly representable: pure shift
    dp = DatapathPower(g, _session(500, 8),
                       default_width=6)
    budget = dp.estimate_analytic()
    assert budget.by_node()["h"].average_charge == pytest.approx(0.0)


def test_cmul_general_coefficient_costs():
    g = DataflowGraph()
    g.add_input("a", WordStats(0.0, 100.0, 0.0))
    g.cmul("h", "a", 0.3)  # needs adders
    dp = DatapathPower(g, _session(800, 8),
                       default_width=6)
    budget = dp.estimate_analytic()
    assert budget.by_node()["h"].average_charge > 0.0


def test_fit_length_pads_and_folds():
    from repro.flow.power import _fit_length

    pmf = np.array([0.5, 0.3, 0.2])
    padded = _fit_length(pmf, 5)
    assert padded.tolist() == [0.5, 0.3, 0.2, 0.0, 0.0]
    folded = _fit_length(pmf, 2)
    assert folded.tolist() == [0.5, 0.5]
    same = _fit_length(pmf, 3)
    assert same.tolist() == pmf.tolist()
    assert folded.sum() == pytest.approx(1.0)
