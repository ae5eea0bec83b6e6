"""The ``constant_multiplier[c=…]`` ModuleSpec family."""

import numpy as np
import pytest

from repro.circuit.simulate import evaluate_outputs
from repro.modules import (
    UnknownModuleError,
    canonical_kind,
    complexity_features,
    golden_constant_multiplier,
    make_module,
    parse_spec,
)


@pytest.mark.parametrize("text, canonical", [
    ("constant_multiplier", "constant_multiplier[c=3]"),
    ("constant_multiplier[c=77]", "constant_multiplier[c=77]"),
    ("constant_multiplier[c=-5]", "constant_multiplier[c=-5]"),
    ("constant_multiplier[ c = -5 ]/6", "constant_multiplier[c=-5]"),
])
def test_spec_canonicalizes_and_roundtrips(text, canonical):
    assert canonical_kind(text, 6 if "/" not in text else None) == canonical
    spec = parse_spec(canonical + "/6")
    assert parse_spec(spec.label) == spec
    assert spec.canonical == canonical
    assert canonical_kind(canonical, 6) == canonical


def test_params_argument_spelling_matches_string():
    assert canonical_kind(
        "constant_multiplier", 6, params={"c": -5}
    ) == "constant_multiplier[c=-5]"


def test_negative_constant_matches_golden_exhaustively():
    width, constant = 4, -5
    module = make_module("constant_multiplier[c=-5]", width)
    assert module.kind == "constant_multiplier[c=-5]"
    assert module.params == {"c": constant}
    words = np.arange(1 << width)
    out = evaluate_outputs(module.compiled, module.pack_inputs(words))
    got = (out.astype(np.int64) << np.arange(out.shape[1])).sum(axis=1)
    golden = golden_constant_multiplier(width, constant, module.output_width)
    assert got.tolist() == [golden(int(w)) for w in words]
    assert got.tolist() == [module.golden(int(w)) for w in words]


def test_linear_complexity_features():
    assert np.allclose(
        complexity_features("constant_multiplier[c=77]", 8), [8, 1]
    )


@pytest.mark.parametrize("c", [2 ** 15, -(2 ** 15) - 1, 10 ** 9])
def test_out_of_range_constant_is_an_addressing_error(c):
    with pytest.raises(UnknownModuleError, match="param c"):
        make_module(f"constant_multiplier[c={c}]", 8)
    with pytest.raises(UnknownModuleError):
        canonical_kind("constant_multiplier", 8, params={"c": c})


def test_range_limits_are_inclusive():
    for c in (2 ** 15 - 1, -(2 ** 15)):
        assert canonical_kind(f"constant_multiplier[c={c}]", 2) == (
            f"constant_multiplier[c={c}]"
        )
