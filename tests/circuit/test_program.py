"""Compiled-engine parity suite: the instruction tape vs the bool reference.

The compiled engine lowers a netlist to a straight-line bitwise program
(:mod:`repro.circuit.program`) executed over the packed lane layout, with
an optional native C backend (:mod:`repro.circuit.native`) for the
relaxation loop and the toggle-plane decode.  Its contract: *identical*
``charge`` and ``total_toggles`` arrays to the ``bool`` engine at equal
chunk size, for every module kind and configuration.  This file sweeps
that contract (kinds, glitch weights, zero delay, awkward lengths, chunk
boundaries) and unit-tests the tape: class canonicalization, plane
decoding, LUT folding, and the native-vs-numpy relaxation equivalence.
"""

import numpy as np
import pytest

from repro.circuit import native as native_mod
from repro.circuit.native import (
    decode_native,
    native_decode,
    native_status,
    native_tables,
)
from repro.circuit.packed import (
    PACKED_AVAILABLE,
    ToggleAccumulator,
    n_words_for,
    pack_lanes,
)
from repro.circuit.power import (
    AUTO_PACKED_MIN_CYCLES,
    FUSED_BLOCK_LANES,
    PowerSimulator,
    PowerTrace,
)
from repro.circuit.program import _CANON, compile_program, decode_planes
from repro.circuit.technology import GATE_TYPES
from repro.modules.library import make_module, module_kinds

pytestmark = pytest.mark.skipif(
    not PACKED_AVAILABLE, reason="compiled engine needs a little-endian host"
)

SWEEP_WIDTH = 4

#: Structurally diverse trimmed subset for the default (fast) run: a
#: carry chain, a carry-save tree, a control-heavy module and a wide-OR
#: reduction.  The full registry sweep runs under ``-m slow``.
FAST_SWEEP_KINDS = ("ripple_adder", "csa_multiplier", "alu", "popcount")


def _stream(module, n_patterns, seed=0):
    rng = np.random.default_rng(seed)
    n_inputs = len(module.compiled.netlist.inputs)
    return rng.integers(0, 2, size=(n_patterns, n_inputs)).astype(bool)


def _assert_trace_equal(a: PowerTrace, b: PowerTrace):
    np.testing.assert_array_equal(a.total_toggles, b.total_toggles)
    # Bitwise, not allclose: the kernels feed the same float64 values to
    # the same BLAS accounting, so even the charge must match exactly.
    np.testing.assert_array_equal(a.charge, b.charge)


def _parity(module, bits, **kwargs):
    ref = PowerSimulator(module.compiled, engine="bool", **kwargs).simulate(
        bits
    )
    got = PowerSimulator(
        module.compiled, engine="compiled", **kwargs
    ).simulate(bits)
    _assert_trace_equal(ref, got)
    return ref


# ----------------------------------------------------------------------
# Engine parity
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("kind", module_kinds())
def test_parity_every_module_kind(kind):
    """Glitch-aware parity, for every registry entry."""
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    trace = _parity(module, bits)
    assert trace.n_cycles == 129


@pytest.mark.fast
@pytest.mark.parametrize("kind", FAST_SWEEP_KINDS)
def test_parity_fast_subset(kind):
    """Tier-1 trimmed variant of the full registry sweep."""
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    trace = _parity(module, bits)
    assert trace.n_cycles == 129


@pytest.mark.parametrize("glitch_weight", [0.0, 0.37, 1.0])
def test_parity_glitch_weights(glitch_weight):
    """Weights != 1 route around the fused native accounting; both agree."""
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=1)
    _parity(module, bits, glitch_aware=True, glitch_weight=glitch_weight)


def test_parity_zero_delay_ablation():
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=2)
    _parity(module, bits, glitch_aware=False)


@pytest.mark.parametrize("n_patterns", [2, 63, 64, 65, 128, 129, 193])
def test_parity_awkward_stream_lengths(n_patterns):
    """Tail lanes (pattern counts off the 64-lane grid) stay inert."""
    module = make_module("ripple_adder", 8)
    bits = _stream(module, n_patterns, seed=3)
    trace = _parity(module, bits)
    assert trace.n_cycles == n_patterns - 1


@pytest.mark.parametrize("chunk_size", [17, 64, 100])
def test_parity_across_chunk_boundaries(chunk_size):
    """The carried boundary column must behave identically per engine."""
    module = make_module("cla_adder", 4)
    bits = _stream(module, 230, seed=4)
    _parity(module, bits, chunk_size=chunk_size, glitch_weight=0.5)


def test_parity_numpy_fallback(monkeypatch):
    """Parity holds with the native backend forced off (pure numpy path)."""
    monkeypatch.setattr(
        "repro.circuit.program.native_tables", lambda program: None
    )
    monkeypatch.setattr(
        "repro.circuit.power.native_tables", lambda program: None
    )
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=5)
    _parity(module, bits)


def test_chunk_size_invariance():
    """Cross-chunk-size runs of the compiled engine: toggles exact, charge
    to float-summation tolerance (the same contract the bool engine has)."""
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 129, seed=5)
    whole = PowerSimulator(
        module.compiled, engine="compiled", chunk_size=4096
    ).simulate(bits)
    sliced = PowerSimulator(
        module.compiled, engine="compiled", chunk_size=13
    ).simulate(bits)
    np.testing.assert_array_equal(whole.total_toggles, sliced.total_toggles)
    np.testing.assert_allclose(whole.charge, sliced.charge, rtol=1e-12, atol=0.0)


def test_constant_stream_has_no_toggles():
    """Unchanged inputs short-circuit the relaxation: all-zero trace."""
    module = make_module("kogge_stone_adder", 4)
    bits = np.tile(_stream(module, 1, seed=6), (80, 1))
    trace = PowerSimulator(module.compiled, engine="compiled").simulate(bits)
    assert trace.total_toggles.sum() == 0
    assert trace.charge.sum() == 0.0


# ----------------------------------------------------------------------
# Engine selection and stats
# ----------------------------------------------------------------------
def test_stats_record_compiled_engine():
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 130, seed=7)
    sim = PowerSimulator(module.compiled, engine="compiled")
    trace = sim.simulate(bits)
    assert sim.last_stats.engine == "compiled"
    assert sim.last_stats.total_toggles == int(trace.total_toggles.sum())


def test_auto_resolves_to_compiled():
    """auto runs word-filling streams on the compiled tape."""
    module = make_module("ripple_adder", 4)
    sim = PowerSimulator(module.compiled, engine="auto")
    assert sim.resolve_engine(AUTO_PACKED_MIN_CYCLES) == "compiled"
    bits = _stream(module, AUTO_PACKED_MIN_CYCLES + 1, seed=8)
    auto = sim.simulate(bits)
    assert sim.last_stats.engine == "compiled"
    _assert_trace_equal(
        auto,
        PowerSimulator(module.compiled, engine="compiled").simulate(bits),
    )


# ----------------------------------------------------------------------
# Lane-blocked fused decode
# ----------------------------------------------------------------------
def _require_fused(module):
    program = compile_program(module.compiled)
    if native_tables(program) is None or native_decode() is None:
        pytest.skip(f"native backend unavailable: {native_status()}")


@pytest.mark.parametrize(
    "n_cycles, chunk_size",
    [(903, None), (2048, None), (3001, None), (1000, 999), (700, 320)],
)
def test_blocked_fused_parity(n_cycles, chunk_size):
    """Chunks spanning several lane blocks (and ragged last blocks) keep
    charge bit-identical to the bool engine."""
    module = make_module("csa_multiplier", 6)
    _require_fused(module)
    bits = _stream(module, n_cycles + 1, seed=n_cycles)
    trace = _parity(module, bits, chunk_size=chunk_size)
    assert trace.n_cycles == n_cycles


def test_fused_buffers_independent_of_chunk_length():
    """999- and 1000-lane chunks share one buffer set whose count
    matrix is one lane block, whatever the chunk length."""
    module = make_module("ripple_adder", 8)
    _require_fused(module)
    sim = PowerSimulator(module.compiled, engine="compiled")
    sim.simulate(_stream(module, 1000, seed=1))
    first = sim._fused
    sim.simulate(_stream(module, 1001, seed=2))
    assert sim._fused is first
    planes, counts, totals = first
    assert counts.size == module.compiled.n_nets * FUSED_BLOCK_LANES
    assert totals.size == FUSED_BLOCK_LANES
    # A longer chunk grows only the packed plane buffer, never the counts.
    sim.simulate(_stream(module, 3000, seed=3))
    assert sim._fused[1] is counts


# ----------------------------------------------------------------------
# Tape structure
# ----------------------------------------------------------------------
def test_canon_covers_every_gate_type():
    """Every library cell must have a canonical evaluation class."""
    assert set(_CANON) == set(GATE_TYPES)


def test_program_is_memoized_per_netlist():
    compiled = make_module("alu", 4).compiled
    assert compile_program(compiled) is compile_program(compiled)
    assert compile_program(compiled) is not compile_program(
        compiled, lut_fold=True
    )


def test_row_of_net_is_permutation_without_folding():
    program = compile_program(make_module("csa_multiplier", 4).compiled)
    row_of_net = program.row_of_net
    assert program.n_rows == len(row_of_net)
    assert sorted(row_of_net.tolist()) == list(range(program.n_rows))


def test_lut_fold_preserves_settle_and_caps():
    """Folded cones settle to the same surviving-row values; lumped caps
    conserve the total switched capacitance."""
    module = make_module("csa_multiplier", 4)
    plain = compile_program(module.compiled)
    folded = compile_program(module.compiled, lut_fold=True)
    assert folded.n_folded_gates > 0
    assert folded.n_rows < plain.n_rows
    bits = _stream(module, 100, seed=8)
    n_words = n_words_for(len(bits))
    packed_bits = pack_lanes(bits.T, n_words)
    ref = plain.settle(packed_bits, n_words)
    got = folded.settle(packed_bits, n_words)
    surviving = np.flatnonzero(folded.row_of_net >= 0)
    np.testing.assert_array_equal(
        got[folded.row_of_net[surviving]], ref[plain.row_of_net[surviving]]
    )
    np.testing.assert_allclose(
        folded.row_caps.sum(), plain.row_caps.sum(), rtol=1e-12
    )


# ----------------------------------------------------------------------
# Plane decoding
# ----------------------------------------------------------------------
def _random_planes(rng, n_planes, n_rows, n_words):
    return [
        rng.integers(0, 2**63, size=(n_rows, n_words), dtype=np.uint64)
        for _ in range(n_planes)
    ]


@pytest.mark.parametrize("n_planes", [1, 3, 5, 9])
def test_decode_planes_matches_accumulator_decode(n_planes):
    """The one-pass decode equals ToggleAccumulator.decode exactly."""
    rng = np.random.default_rng(9)
    n_rows, n_lanes = 11, 130
    planes = _random_planes(rng, n_planes, n_rows, n_words_for(n_lanes))
    accumulator = ToggleAccumulator()
    accumulator.planes = [p.copy() for p in planes]
    expected = accumulator.decode(n_lanes)
    got = decode_planes(planes, n_lanes)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_native_decode_matches_decode_planes():
    """The fused C decode produces the exact float64 counts and totals."""
    if native_decode() is None:
        pytest.skip(f"native backend unavailable: {native_status()}")
    rng = np.random.default_rng(10)
    n_rows, n_lanes, n_planes = 17, 130, 4
    n_words = n_words_for(n_lanes)
    planes = np.asarray(
        _random_planes(rng, n_planes, n_rows, n_words)
    )
    row_of_net = np.ascontiguousarray(
        rng.permutation(n_rows), dtype=np.int64
    )
    out = np.empty((n_rows, n_lanes), dtype=np.float64)
    totals = np.empty(n_lanes, dtype=np.uint32)
    decode_native(planes, row_of_net, n_lanes, out, totals)
    expected = decode_planes(
        [p[row_of_net] for p in planes], n_lanes
    ).astype(np.float64)
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(
        totals.astype(np.int64), expected.sum(axis=0).astype(np.int64)
    )


# ----------------------------------------------------------------------
# Native backend
# ----------------------------------------------------------------------
def test_native_vs_numpy_relax_identical():
    """Same final values, steps and toggle planes from both relax paths."""
    module = make_module("csa_multiplier", 4)
    program = compile_program(module.compiled)
    if native_tables(program) is None:
        pytest.skip(f"native backend unavailable: {native_status()}")
    old = _stream(module, 100, seed=11)
    new = _stream(module, 100, seed=12)
    n_words = n_words_for(100)
    settled = program.settle(pack_lanes(old.T, n_words), n_words)
    new_packed = pack_lanes(new.T, n_words)
    final_n, acc_n, steps_n = program.relax(settled, new_packed, native=True)
    final_p, acc_p, steps_p = program.relax(settled, new_packed, native=False)
    np.testing.assert_array_equal(final_n, final_p)
    assert steps_n == steps_p
    np.testing.assert_array_equal(
        decode_planes(acc_n.planes, 100), decode_planes(acc_p.planes, 100)
    )


def test_native_env_gate(monkeypatch):
    """REPRO_NATIVE=0 resolves the kernel to None (numpy fallback)."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(native_mod, "_KERNEL", False)
    monkeypatch.setattr(native_mod, "_DECODE", False)
    monkeypatch.setattr(native_mod, "_STATUS", "unresolved")
    assert native_mod.native_kernel() is None
    assert native_mod.native_decode() is None
    assert "disabled" in native_mod.native_status()


def test_native_status_is_reportable():
    assert isinstance(native_status(), str) and native_status()


def test_native_gate_reread_without_reimport(monkeypatch):
    """The env gate is re-evaluated per call, not captured at import.

    Forked serve-fleet workers (and tests) toggle ``REPRO_NATIVE`` at
    runtime; the backend must flip accordingly with no re-import.
    """
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert native_mod.native_kernel() is None
    assert native_mod.native_decode() is None
    assert "disabled" in native_mod.native_status()
    # Clearing the gate re-enables (or at least re-attempts resolution).
    monkeypatch.delenv("REPRO_NATIVE")
    assert "disabled" not in native_mod.native_status()
    kernel = native_mod.native_kernel()  # None only if no compiler exists
    # Programmatic override beats the environment in both directions.
    native_mod.set_native_enabled(False)
    try:
        assert native_mod.native_kernel() is None
        assert "set_native_enabled" in native_mod.native_status()
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_mod.set_native_enabled(True)
        assert native_mod.native_kernel() is kernel
    finally:
        native_mod.set_native_enabled(None)
    assert native_mod.native_kernel() is None  # env gate back in charge


def test_native_gate_toggles_in_subprocess():
    """End-to-end in a pristine interpreter: one import, gate flipped
    twice, kernel state follows (the forked-worker scenario)."""
    import subprocess
    import sys

    code = "\n".join([
        "import os",
        "os.environ['REPRO_NATIVE'] = '0'",
        "from repro.circuit import native",
        "assert native.native_kernel() is None",
        "assert native.native_decode() is None",
        "assert 'disabled' in native.native_status()",
        "os.environ['REPRO_NATIVE'] = '1'",
        "kernel = native.native_kernel()  # may be None without a cc",
        "assert 'disabled' not in native.native_status()",
        "native.set_native_enabled(False)",
        "assert native.native_kernel() is None",
        "native.set_native_enabled(None)",
        "assert native.native_kernel() is kernel",
        "print('GATE-OK')",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert "GATE-OK" in proc.stdout


def test_hotspots_compiled_engine_parity():
    """net_power_breakdown(engine="compiled") matches the bool report
    exactly — program-order per-row totals permuted back to net order."""
    from repro.circuit.hotspots import net_power_breakdown

    module = make_module("booth_wallace_multiplier", 4)
    bits = _stream(module, 150, seed=15)
    ref = net_power_breakdown(module.compiled, bits, engine="bool")
    got = net_power_breakdown(module.compiled, bits, engine="compiled")
    assert [(h.net, h.toggles) for h in ref] == [
        (h.net, h.toggles) for h in got
    ]
    np.testing.assert_allclose(
        [h.charge for h in ref], [h.charge for h in got], rtol=0, atol=0
    )
