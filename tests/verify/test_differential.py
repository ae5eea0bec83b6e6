"""Differential fuzzer: smoke runs, metamorphic relations, bug detection."""

import numpy as np
import pytest

import repro.circuit.power as power_mod
from repro.circuit.native import ChunkKernel, native_kernel
from repro.verify.differential import (
    DEFAULT_KINDS,
    SWAP_SYMMETRIC_KINDS,
    FuzzCase,
    check_accumulator_merge,
    check_cache_key_engine_independence,
    check_case,
    check_classification_permutation,
    check_concatenation,
    check_engine_parity,
    check_golden_function,
    check_operand_swap,
    check_oracle_trace,
    make_stream,
    random_case,
    run_fuzz,
)
from repro.modules.library import make_module, module_kinds


def _case(**overrides):
    base = dict(kind="ripple_adder", width=4, n_patterns=40, seed=1)
    base.update(overrides)
    return FuzzCase(**base)


def _prepared(case):
    module = make_module(case.kind, case.width)
    return module, make_stream(case, module)


# ----------------------------------------------------------------------
# Case model
# ----------------------------------------------------------------------
def test_case_validation():
    with pytest.raises(ValueError, match="n_patterns"):
        _case(n_patterns=1)
    with pytest.raises(ValueError, match="stimulus"):
        _case(stimulus="telepathy")


def test_stream_is_deterministic():
    case = _case()
    module = make_module(case.kind, case.width)
    np.testing.assert_array_equal(
        make_stream(case, module), make_stream(case, module)
    )
    assert make_stream(case, module).shape == (40, module.input_bits)


def test_random_case_reproducible():
    a = [random_case(np.random.default_rng(3)) for _ in range(10)]
    b = [random_case(np.random.default_rng(3)) for _ in range(10)]
    assert a == b
    assert all(case.kind in DEFAULT_KINDS for case in a)


# ----------------------------------------------------------------------
# Individual checks pass on healthy code
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["ripple_adder", "csa_multiplier", "alu"])
def test_all_checks_pass(kind):
    assert check_case(_case(kind=kind, width=3)) == []


def test_swap_check_applies_to_symmetric_kinds_only():
    assert set(SWAP_SYMMETRIC_KINDS) <= set(module_kinds())
    symmetric = _case(kind="ripple_adder")
    assert check_operand_swap(symmetric, *_prepared(symmetric)) == []
    asymmetric = _case(kind="csa_multiplier", width=3)
    # Not in the symmetric set: the check must skip, not fail.
    assert check_operand_swap(asymmetric, *_prepared(asymmetric)) == []


def test_cache_key_engine_independence_passes():
    assert check_cache_key_engine_independence() == []


def test_classification_permutation_invariance():
    case = _case(kind="dadda_multiplier", width=4, stimulus="corner")
    assert check_classification_permutation(case, *_prepared(case)) == []


# ----------------------------------------------------------------------
# Injected bugs are caught
# ----------------------------------------------------------------------
def test_engine_parity_catches_plane_corruption(compiled_toggle_bug):
    """A single flipped accumulator bit in the compiled kernel is detected."""
    case = _case(n_patterns=50)
    module, bits = _prepared(case)
    mismatches = check_engine_parity(case, module, bits)
    assert {m.check for m in mismatches} >= {
        "engine_parity_toggles_compiled"
    }


def test_engine_parity_catches_compiled_corruption(monkeypatch):
    """An off-by-one lane total from the compiled chunk is detected, on
    the native chunk call and on the ``REPRO_NATIVE=0`` numpy path."""
    targets = [(power_mod.PowerSimulator, "_compiled_chunk", "0")]
    if native_kernel() is not None:
        targets.append((ChunkKernel, "run", "1"))
    case = _case(n_patterns=50)
    module, bits = _prepared(case)
    for owner, name, gate in targets:
        real = getattr(owner, name)

        def corrupted(self, *args, _real=real, **kwargs):
            result = _real(self, *args, **kwargs)
            result[1][0] += 1  # (charge, totals, ...): one lane's total
            return result

        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NATIVE", gate)
            patch.setattr(owner, name, corrupted)
            mismatches = check_engine_parity(case, module, bits)
        assert {m.check for m in mismatches} >= {
            "engine_parity_toggles_compiled"
        }, name


def test_oracle_catches_shared_engine_bug(monkeypatch):
    """A bug that hits BOTH engines identically slips past parity but is
    caught by the independent Python oracle."""
    real = power_mod.PowerSimulator.simulate

    def biased(self, bits):
        trace = real(self, bits)
        trace.total_toggles[0] += 1  # same corruption whichever engine ran
        return trace

    monkeypatch.setattr(power_mod.PowerSimulator, "simulate", biased)
    case = _case(n_patterns=30)
    module, bits = _prepared(case)
    assert check_engine_parity(case, module, bits) == []  # parity is blind
    mismatches = check_oracle_trace(case, module, bits)
    assert any(m.check.startswith("oracle_toggles") for m in mismatches)


def test_golden_function_catches_wrong_netlist():
    """An adder netlist paired with a subtractor's reference function
    (i.e. circuit and spec disagree) must fail the golden check."""
    case = _case(kind="ripple_adder", n_patterns=20)
    module, bits = _prepared(case)
    module.golden = make_module("subtractor", case.width).golden
    mismatches = check_golden_function(case, module, bits)
    assert any(m.check == "golden_function" for m in mismatches)


# ----------------------------------------------------------------------
# Metamorphic checks on fixed cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "check",
    [check_concatenation, check_accumulator_merge],
    ids=["concat", "accumulator_merge"],
)
def test_stream_split_relations(check):
    for seed in range(3):
        case = _case(kind="cla_adder", width=3, n_patterns=37, seed=seed,
                     chunk_size=7)
        assert check(case, *_prepared(case)) == []


# ----------------------------------------------------------------------
# Fuzz sessions
# ----------------------------------------------------------------------
def test_fuzz_smoke():
    """Bounded tier-1 fuzz: a few hundred transitions across the registry."""
    report = run_fuzz(budget=400, seed=0, shrink=False)
    assert report.ok, report.summary()
    assert report.n_transitions >= 400
    assert report.n_cases >= 1
    assert "no cross-engine or oracle mismatches" in report.summary()


def test_fuzz_respects_kind_filter(tmp_path):
    report = run_fuzz(
        budget=150, seed=2, kinds=["ripple_adder"], max_width=4,
        artifacts_dir=str(tmp_path),
    )
    assert report.ok
    assert set(report.kind_counts) == {"ripple_adder"}


def test_fuzz_reports_and_shrinks_mismatches(compiled_toggle_bug, tmp_path):
    """A fuzz session over buggy code fails, shrinks and writes repros."""
    report = run_fuzz(
        budget=2000, seed=0, artifacts_dir=str(tmp_path),
        max_mismatching_cases=1,
    )
    assert not report.ok
    assert report.shrunk_cases, "mismatch was not shrunk"
    assert report.shrunk_cases[0].n_transitions <= 8
    assert report.repro_paths
    assert all(tmp_path.glob("repro_*.py"))


@pytest.mark.fuzz
def test_fuzz_long_budget():
    """Nightly-scale session (deselected by default; ``pytest -m fuzz``)."""
    report = run_fuzz(budget=100_000, seed=0, shrink=False)
    assert report.ok, report.summary()
