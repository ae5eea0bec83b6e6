"""Compiled-engine parity suite: the instruction tape vs the bool reference.

The compiled engine lowers a netlist to a straight-line bitwise program
(:mod:`repro.circuit.program`) executed over the packed lane layout, with
an optional native C backend (:mod:`repro.circuit.native`) that runs a
whole chunk (settle, relax, charge reduction) in one call.  Its contract:
*identical* ``charge`` and ``total_toggles`` arrays to the ``bool``
engine, for every module kind and configuration, because every path sums
charge in ascending net order (:func:`net_order_charge`).  This file
sweeps that contract (kinds, glitch weights, zero delay, awkward lengths,
chunk boundaries, native vs numpy) and unit-tests the tape: class
canonicalization, plane decoding, LUT folding, and the native-vs-numpy
relaxation equivalence.
"""

import subprocess

import numpy as np
import pytest

from repro.circuit import native as native_mod
from repro.circuit.builder import NetlistBuilder
from repro.circuit.compiled import CompiledNetlist
from repro.circuit.native import (
    CFLAGS,
    library_path,
    native_kernel,
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
    PowerSimulator,
    PowerTrace,
    net_order_charge,
)
from repro.circuit.program import _CANON, compile_program, decode_planes
from repro.circuit.simulate import functional_values, unit_delay_transition
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
    # Bitwise, not allclose: every kernel sums the same products in the
    # same net order, so even the charge must match exactly.
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
    monkeypatch.setenv("REPRO_NATIVE", "0")
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=5)
    _parity(module, bits)


def test_chunk_size_invariance():
    """Cross-chunk-size runs of the compiled engine are bit-identical:
    each transition sums its own nets, whatever chunk it lands in."""
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 129, seed=5)
    whole = PowerSimulator(
        module.compiled, engine="compiled", chunk_size=4096
    ).simulate(bits)
    sliced = PowerSimulator(
        module.compiled, engine="compiled", chunk_size=13
    ).simulate(bits)
    _assert_trace_equal(whole, sliced)


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
# The charge-order contract: native compiled == numpy compiled == bool
# ----------------------------------------------------------------------
def _require_native():
    if native_kernel() is None:
        pytest.skip(f"native backend unavailable: {native_status()}")


def _three_way(compiled, bits, monkeypatch, **kwargs):
    """Native compiled (numpy too without a C compiler), ``REPRO_NATIVE=0``
    compiled and bool agree bit for bit on charge and toggles; returns
    the native trace."""
    native = PowerSimulator(compiled, engine="compiled", **kwargs).simulate(
        bits
    )
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NATIVE", "0")
        fallback = PowerSimulator(
            compiled, engine="compiled", **kwargs
        ).simulate(bits)
    ref = PowerSimulator(compiled, engine="bool", **kwargs).simulate(bits)
    _assert_trace_equal(ref, native)
    _assert_trace_equal(ref, fallback)
    return native


@pytest.mark.parametrize(
    "n_cycles, chunk_size",
    [(903, None), (2048, None), (3001, None), (1000, 999), (700, 320)],
)
def test_charge_order_parity(n_cycles, chunk_size, monkeypatch):
    """Ragged lane counts and chunk tails (1000 cycles in chunks of 999
    leave a 1-lane chunk) keep all three paths bit-identical."""
    module = make_module("csa_multiplier", 6)
    bits = _stream(module, n_cycles + 1, seed=n_cycles)
    trace = _three_way(module.compiled, bits, monkeypatch, chunk_size=chunk_size)
    assert trace.n_cycles == n_cycles


@pytest.mark.parametrize("kind", module_kinds())
def test_charge_order_every_kind(kind, monkeypatch):
    """Every registered kind: 1001 patterns in chunks of 999, so the last
    chunk has one lane."""
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 1001, seed=hash(kind) % 2**32)
    _three_way(module.compiled, bits, monkeypatch, chunk_size=999)


def test_charge_order_glitch_weight(monkeypatch):
    """Partial glitch weights take the numpy reducer on every engine."""
    module = make_module("csa_multiplier", 6)
    bits = _stream(module, 1001, seed=13)
    _three_way(module.compiled, bits, monkeypatch, chunk_size=999, glitch_weight=0.5)


def _tapped_chain(length):
    """A net that toggles ``length + 1`` times per input change: an
    inverter chain whose every node feeds a balanced XOR tree, so each
    node's change reaches the root at its own unit-delay step."""
    b = NetlistBuilder("tapped_chain")
    x, y = b.add_inputs(2)
    taps = [b.gate("XOR2", x, y)]
    for _ in range(length):
        taps.append(b.gate("INV", taps[-1]))
    while len(taps) > 1:
        pairs = zip(taps[0::2], taps[1::2])
        taps = [b.gate("XOR2", u, v) for u, v in pairs] + (
            [taps[-1]] if len(taps) % 2 else []
        )
    return CompiledNetlist(b.build(taps))


def test_charge_order_deep_counts(monkeypatch):
    """Counts of 256 or more need a ninth toggle plane and take the C
    reduction's per-lane branch; all three paths stay bit-identical,
    with a ragged last word in both chunks (69 cycles in chunks of 50)."""
    compiled = _tapped_chain(300)
    assert compile_program(compiled).max_planes >= 9
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2, size=(70, 2)).astype(bool)
    settled = functional_values(compiled, bits[:-1])
    _, toggles = unit_delay_transition(compiled, settled, bits[1:])
    assert toggles.max() >= 256
    trace = _three_way(compiled, bits, monkeypatch, chunk_size=50)
    assert trace.n_cycles == 69


def test_native_charge_matches_net_loop():
    """The C reduction equals an explicit Python loop over nets: per
    transition, capacitance times count, added in ascending net order."""
    _require_native()
    module = make_module("booth_wallace_multiplier", 4)
    compiled = module.compiled
    bits = _stream(module, 300, seed=14)
    trace = PowerSimulator(compiled, engine="compiled").simulate(bits)
    settled = functional_values(compiled, bits[:-1])
    _, toggles = unit_delay_transition(compiled, settled, bits[1:])
    expected = np.zeros(toggles.shape[1])
    for net in range(compiled.n_nets):
        expected = expected + compiled.net_caps[net] * toggles[net].astype(
            np.float64
        )
    np.testing.assert_array_equal(trace.charge, expected)
    np.testing.assert_array_equal(
        net_order_charge(compiled.net_caps, toggles), expected
    )
    np.testing.assert_array_equal(
        trace.total_toggles, toggles.sum(axis=0, dtype=np.int64)
    )


def test_chunk_kernel_bound_once_per_simulator():
    """The native call is bound on first use and reused by later streams;
    its work buffers only grow, and malformed inputs never reach C."""
    _require_native()
    module = make_module("ripple_adder", 8)
    sim = PowerSimulator(module.compiled, engine="compiled")
    sim.simulate(_stream(module, 1000, seed=1))
    kernel = sim._kernel
    assert kernel is not None
    planes = kernel._planes
    sim.simulate(_stream(module, 500, seed=2))
    assert sim._kernel is kernel and kernel._planes is planes
    sim.simulate(_stream(module, 3000, seed=3))
    assert sim._kernel is kernel and kernel._planes.size > planes.size
    # Shapes are checked before any address reaches C.
    with pytest.raises(ValueError):
        kernel.run(np.zeros((1, 1), np.uint64), np.zeros((1, 1), np.uint64), 1)


@pytest.mark.parametrize("make_input", [
    lambda n: np.zeros(n, np.uint64),  # 1-D: no word axis
    lambda n: np.full((n, 1), 1.5),  # float: would be cast to 1
    lambda n: np.full((n, 1), -1, np.int64),  # signed: would wrap to ones
], ids=["one_dim", "float", "negative_int64"])
def test_chunk_kernel_refuses_malformed_inputs(make_input):
    """A wrongly shaped or typed packed input raises ``ValueError``
    before the C call instead of being reshaped, cast or wrapped."""
    _require_native()
    module = make_module("ripple_adder", 8)
    sim = PowerSimulator(module.compiled, engine="compiled")
    sim.simulate(_stream(module, 100, seed=1))
    n_inputs = len(module.compiled.netlist.inputs)
    good = np.zeros((n_inputs, 1), np.uint64)
    with pytest.raises(ValueError):
        sim._kernel.run(make_input(n_inputs), good, 1)
    with pytest.raises(ValueError):
        sim._kernel.run(good, make_input(n_inputs), 1)


def test_library_path_tracks_flags_and_compiler():
    """The cached object is named by source, flags and compiler, so a
    flag or compiler change never reuses an object built another way."""
    base = library_path("/usr/bin/cc", CFLAGS)
    assert library_path("/usr/bin/cc", CFLAGS) == base
    assert library_path("/usr/bin/cc", CFLAGS + ("-g",)) != base
    assert library_path("/usr/bin/cc", ("-O2", "-shared", "-fPIC")) != base
    assert library_path("/usr/bin/clang", CFLAGS) != base


def test_native_source_compiles_without_warnings(tmp_path):
    """The C kernel builds clean under ``-Wall -Wextra -pedantic
    -std=c99 -Werror`` on top of the production flags (the warning flags
    are this test's own; the runtime build does not use them)."""
    cc = native_mod._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    source = tmp_path / "kernel.c"
    source.write_text(native_mod._SOURCE)
    done = subprocess.run(
        [cc, *CFLAGS, "-Wall", "-Wextra", "-pedantic", "-std=c99",
         "-Werror", "-o", str(tmp_path / "kernel.so"), str(source)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


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
    monkeypatch.setattr(native_mod, "_CHUNK", False)
    monkeypatch.setattr(native_mod, "_STATUS", "unresolved")
    assert native_mod.native_kernel() is None
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
