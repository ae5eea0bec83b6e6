"""Model identity: one ``(spec, width)`` gives one model at every entry point."""

import numpy as np
import pytest

from repro import Session
from repro.eval import ExperimentConfig, Harness
from repro.flow import DatapathPower
from repro.stats import DataflowGraph, WordStats
from repro.verify.differential import (
    MODEL_IDENTITY_SPECS,
    check_model_identity,
)

CONFIG = ExperimentConfig(n_characterization=200, seed=0)


def test_relation_holds_for_every_spec():
    assert check_model_identity() == []


@pytest.mark.parametrize("spec, width", MODEL_IDENTITY_SPECS)
def test_flow_binding_is_the_session_model(spec, width):
    graph = DataflowGraph()
    graph.add_input("a", WordStats(0.0, 16.0, 0.0))
    graph.add_input("b", WordStats(0.0, 16.0, 0.0))
    if spec.startswith("constant_multiplier"):
        graph.cmul("n", "a", 77 / 256)
    else:
        graph.add("n", "a", "b")
    budgeter = DatapathPower(
        graph, Session(config=CONFIG), default_width=width,
        op_kinds={"add": spec},
    )
    served = budgeter.binding("n")
    reference = Session(config=CONFIG).characterize(spec, width).model
    assert served.kind == spec
    np.testing.assert_array_equal(
        served.estimator.model.coefficients, reference.coefficients
    )


def test_harness_and_session_agree_on_non_canonical_spellings():
    # "trunc_adder" is trunc_adder[k=1]: both spellings draw one stream.
    harness = Harness(CONFIG)
    bare = harness.characterization("trunc_adder", 6).model
    canonical = Session(config=CONFIG).characterize("trunc_adder[k=1]", 6)
    np.testing.assert_array_equal(
        bare.coefficients, canonical.model.coefficients
    )


def test_relation_detects_a_diverging_entry_point(monkeypatch):
    other = Session(config=ExperimentConfig(n_characterization=200, seed=1))

    def foreign_binding(self, name):
        return other.registry().get(
            self.spec_of(name), self.width_of(name), mode="exact"
        )

    monkeypatch.setattr(DatapathPower, "binding", foreign_binding)
    mismatches = check_model_identity(specs=MODEL_IDENTITY_SPECS[:1])
    assert [m.check for m in mismatches] == ["model_identity_flow"]
