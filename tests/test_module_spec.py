"""ModuleSpec addressing: grammar, canonicalization and key stability.

The redesign's load-bearing promise is that variant addressing is *just
a string* riding the existing ``kind`` slot — so this file pins the two
sides of that promise: spec strings parse/canonicalize per the grammar,
and every ``(kind, width)`` cache key stays byte-identical under an
unchanged characterization version (four pinned digests)."""

import pytest

from repro.eval.harness import ExperimentConfig
from repro.modules import (
    ModuleSpec,
    UnknownModuleError,
    canonical_kind,
    make_module,
    parse_spec,
    resolve_spec,
)
from repro.runtime.cache import ModelCache

# (kind, width, enhanced, seed) -> digest with the default
# ExperimentConfig, captured at CHARACTERIZATION_VERSION "4".  A digest
# may change only together with a deliberate CHARACTERIZATION_VERSION
# bump (results changed under an unchanged config): any other drift
# silently orphans every persisted model cache in the field.
PINNED_KEYS = {
    ("ripple_adder", 8, False, 1999):
        "522e7d3bcee1fac630ec90e8066e471ab5c079049b7ab053b1d016dced9771ab",
    ("csa_multiplier", 4, True, 0):
        "8d1741607a3017fbf1d89229e0abf953cfd0c107e2a94e6e75e04d12f1033338",
    ("mac", 6, False, 7):
        "c76216d0029e5d64f7776c580a932b06e68c4e1896ffae309879057947b10eb1",
    ("cla_adder", 16, False, 1999):
        "42bf852c4488a6710a5a0bd983f949e4df90c3b18760d62d4de2ed800dcbf108",
}


class TestGrammar:
    def test_bare_kind(self):
        spec = parse_spec("ripple_adder")
        assert spec.kind == "ripple_adder"
        assert spec.params == ()
        assert spec.width is None
        assert spec.canonical == "ripple_adder"

    def test_full_form(self):
        spec = parse_spec("trunc_adder[k=4]/16")
        assert spec.kind == "trunc_adder"
        assert spec.params == (("k", 4),)
        assert spec.width == 16
        assert spec.canonical == "trunc_adder[k=4]"
        assert spec.label == "trunc_adder[k=4]/16"

    def test_choice_value_and_width(self):
        spec = parse_spec("mac_reordered[order=ba]/8")
        assert spec.params == (("order", "ba"),)
        assert spec.width == 8

    def test_params_sorted_by_name(self):
        assert (ModuleSpec("x", (("b", 2), ("a", 1))).canonical
                == ModuleSpec("x", (("a", 1), ("b", 2))).canonical
                == "x[a=1,b=2]")

    def test_roundtrip(self):
        for text in ("seg_adder[s=2]", "trunc_adder[k=0]/4", "lor_adder"):
            spec = parse_spec(text)
            assert parse_spec(spec.label) == spec

    @pytest.mark.parametrize("bad", [
        "trunc adder", "trunc_adder[k]", "trunc_adder[k=]",
        "trunc_adder[]/4", "trunc_adder[k=1,k=2]", "/8", "a[b=1]c",
    ])
    def test_bad_syntax(self, bad):
        with pytest.raises(UnknownModuleError):
            parse_spec(bad)

    def test_non_string(self):
        with pytest.raises(UnknownModuleError):
            parse_spec(42)


class TestCoerce:
    def test_merge_params(self):
        spec = ModuleSpec.coerce("trunc_adder", width=8, params={"k": 2})
        assert spec.canonical == "trunc_adder[k=2]"
        assert spec.width == 8

    def test_conflicting_param_spellings(self):
        with pytest.raises(UnknownModuleError, match="both"):
            ModuleSpec.coerce("trunc_adder[k=1]", params={"k": 2})

    def test_conflicting_widths(self):
        with pytest.raises(UnknownModuleError, match="conflicting widths"):
            ModuleSpec.coerce("trunc_adder[k=1]/8", width=4)

    def test_matching_width_is_fine(self):
        spec = ModuleSpec.coerce("trunc_adder[k=1]/8", width=8)
        assert spec.width == 8


class TestResolve:
    def test_defaults_filled(self):
        assert canonical_kind("trunc_adder", 8) == "trunc_adder[k=1]"
        assert (canonical_kind("csa_reordered_multiplier", 4)
                == "csa_reordered_multiplier[order=msb]")

    def test_plain_kind_identity(self):
        assert canonical_kind("ripple_adder", 8) == "ripple_adder"
        assert canonical_kind("csa_multiplier", 4) == "csa_multiplier"

    def test_degenerate_collapse(self):
        assert canonical_kind("trunc_adder[k=0]", 8) == "ripple_adder"
        assert canonical_kind("lor_adder", 8, {"k": 0}) == "ripple_adder"
        assert canonical_kind("seg_adder[s=8]", 8) == "ripple_adder"
        assert canonical_kind("seg_adder[s=8]", 16) == "seg_adder[s=8]"
        assert canonical_kind("mac_reordered[order=ab]", 4) == "mac"
        assert (canonical_kind("csa_reordered_multiplier[order=lsb]", 4)
                == "csa_multiplier")

    def test_unknown_family_flagged(self):
        with pytest.raises(UnknownModuleError) as err:
            resolve_spec("nope_adder", width=4)
        assert err.value.family_unknown

    def test_unknown_param(self):
        with pytest.raises(UnknownModuleError, match="unknown param"):
            resolve_spec("trunc_adder[z=1]", width=4)

    def test_params_on_plain_kind(self):
        with pytest.raises(UnknownModuleError, match="takes no params"):
            resolve_spec("ripple_adder[k=1]", width=4)

    def test_out_of_range(self):
        with pytest.raises(UnknownModuleError, match="exceeds the maximum"):
            resolve_spec("trunc_adder[k=4]", width=4)
        with pytest.raises(UnknownModuleError, match="below the minimum"):
            resolve_spec("seg_adder[s=0]", width=4)

    def test_bad_choice(self):
        with pytest.raises(UnknownModuleError, match="not one of"):
            resolve_spec("mac_reordered[order=zz]", width=4)


class TestMakeModule:
    def test_variant_module(self):
        module = make_module("trunc_adder[k=2]", 8)
        assert module.kind == "trunc_adder[k=2]"
        assert module.params == {"k": 2}
        assert module.exact is not None

    def test_degenerate_builds_parent(self):
        module = make_module("trunc_adder[k=0]", 8)
        parent = make_module("ripple_adder", 8)
        assert module.kind == "ripple_adder"
        assert module.netlist.n_gates == parent.netlist.n_gates
        assert module.exact is None

    def test_unknown_kind_is_value_error_with_suggestions(self):
        # The legacy bug: a bare KeyError escaped make_module.
        with pytest.raises(ValueError, match="did you mean"):
            make_module("ripple_addr", 8)
        with pytest.raises(ValueError, match="unknown module kind"):
            make_module("nope", 8)

    def test_width_required(self):
        with pytest.raises(TypeError):
            make_module("trunc_adder[k=1]")

    def test_width_from_spec_string(self):
        module = make_module("trunc_adder[k=1]/8")
        assert module.operand_specs[0][1] == 8


class TestKeyStability:
    def test_pinned_characterization_keys(self):
        cache = ModelCache("/nonexistent-never-touched")
        config = ExperimentConfig()
        for (kind, width, enhanced, seed), digest in PINNED_KEYS.items():
            assert cache.characterization_key(
                kind, width, enhanced, config, seed
            ) == digest, f"cache key drifted for {kind}/{width}"

    def test_param_order_insensitive_keys(self):
        cache = ModelCache("/nonexistent-never-touched")
        config = ExperimentConfig()
        a = canonical_kind("trunc_adder[k=2]", 8)
        b = canonical_kind("trunc_adder", 8, {"k": 2})
        assert a == b
        assert (cache.characterization_key(a, 8, False, config, 3)
                == cache.characterization_key(b, 8, False, config, 3))

    def test_variant_keys_distinct_from_parent(self):
        cache = ModelCache("/nonexistent-never-touched")
        config = ExperimentConfig()
        keys = {
            cache.characterization_key(kind, 8, False, config, 3)
            for kind in (
                "ripple_adder", "trunc_adder[k=1]", "trunc_adder[k=2]",
                "lor_adder[k=1]",
            )
        }
        assert len(keys) == 4
