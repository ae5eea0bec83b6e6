"""Lane utilities, engine selection and the LUT-popcount fallback.

:mod:`repro.circuit.packed` holds the ``uint64`` lane layout the compiled
engine runs on: packing, single-lane access, :func:`popcount` and the
bit-sliced :class:`ToggleAccumulator`.  This file unit-tests those
primitives, the ``auto`` engine rule shared by the simulator and the
hotspot report, and runs compiled-vs-bool parity twice over: with the
native backend forced off, so the pure-numpy word-level kernel is swept
on its own, and with ``np.bitwise_count`` patched away, so the 8-bit LUT
popcount path is exercised end to end.  The main engine parity sweep
lives in ``test_program.py``.
"""

import numpy as np
import pytest

from repro.circuit import packed as packed_mod
from repro.circuit.packed import (
    PACKED_AVAILABLE,
    ToggleAccumulator,
    extract_lane,
    inject_lane,
    n_words_for,
    pack_lanes,
    popcount,
    unpack_lanes,
)
from repro.circuit.hotspots import net_power_breakdown
from repro.circuit.power import AUTO_PACKED_MIN_CYCLES, PowerSimulator
from repro.modules.library import make_module, module_kinds

pytestmark = pytest.mark.skipif(
    not PACKED_AVAILABLE, reason="packed lanes need a little-endian host"
)

#: Small width per kind for the full-registry sweep (mac wants >= 2;
#: everything in the registry accepts 4).
SWEEP_WIDTH = 4

#: Structurally diverse trimmed subset for the default (fast) run: a
#: carry chain, a carry-save tree, a control-heavy module and a wide-OR
#: reduction.  The full registry sweep runs under ``-m slow``.
FAST_SWEEP_KINDS = ("ripple_adder", "csa_multiplier", "alu", "popcount")


def _stream(module, n_patterns, seed=0):
    rng = np.random.default_rng(seed)
    n_inputs = len(module.compiled.netlist.inputs)
    return rng.integers(0, 2, size=(n_patterns, n_inputs)).astype(bool)


def _hotspot_toggles(module, bits, engine):
    return {
        h.net: h.toggles
        for h in net_power_breakdown(module.compiled, bits, engine=engine)
    }


def _parity(module, bits):
    """Compiled vs bool: exact traces and exact per-net hotspot totals
    (the latter go through ``ToggleAccumulator.per_row_totals``, i.e.
    :func:`popcount`)."""
    ref = PowerSimulator(module.compiled, engine="bool").simulate(bits)
    got = PowerSimulator(module.compiled, engine="compiled").simulate(bits)
    np.testing.assert_array_equal(ref.total_toggles, got.total_toggles)
    np.testing.assert_array_equal(ref.charge, got.charge)
    assert _hotspot_toggles(module, bits, "bool") == _hotspot_toggles(
        module, bits, "compiled"
    )


@pytest.fixture
def numpy_lanes(monkeypatch):
    """Force the compiled engine onto its pure-numpy ``uint64`` lane path.

    ``test_program.py`` sweeps parity on whichever backend is active (the
    native relaxation when a C compiler is present); this pins the numpy
    word-level kernel so the lane layout is swept on its own.
    """
    monkeypatch.setenv("REPRO_NATIVE", "0")


def _lane_parity(module, bits, **kwargs):
    ref = PowerSimulator(module.compiled, engine="bool", **kwargs).simulate(
        bits
    )
    got = PowerSimulator(
        module.compiled, engine="compiled", **kwargs
    ).simulate(bits)
    np.testing.assert_array_equal(ref.total_toggles, got.total_toggles)
    np.testing.assert_array_equal(ref.charge, got.charge)
    return ref


# ----------------------------------------------------------------------
# Numpy lane-kernel parity
# ----------------------------------------------------------------------
@pytest.mark.fast
@pytest.mark.parametrize("kind", FAST_SWEEP_KINDS)
def test_parity_fast_subset(kind, numpy_lanes):
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    trace = _lane_parity(module, bits)
    assert trace.n_cycles == 129


@pytest.mark.parametrize("glitch_weight", [0.0, 0.37, 1.0])
def test_parity_glitch_weights(glitch_weight, numpy_lanes):
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=1)
    _lane_parity(
        module, bits, glitch_aware=True, glitch_weight=glitch_weight
    )


def test_parity_zero_delay_ablation(numpy_lanes):
    module = make_module("csa_multiplier", 4)
    bits = _stream(module, 200, seed=2)
    _lane_parity(module, bits, glitch_aware=False)


@pytest.mark.parametrize("n_patterns", [2, 63, 64, 65, 128, 129, 193])
def test_parity_awkward_stream_lengths(n_patterns, numpy_lanes):
    """Tail lanes (pattern counts off the 64-lane grid) stay inert."""
    module = make_module("ripple_adder", 8)
    bits = _stream(module, n_patterns, seed=3)
    trace = _lane_parity(module, bits)
    assert trace.n_cycles == n_patterns - 1


@pytest.mark.parametrize("chunk_size", [17, 64, 100])
def test_parity_across_chunk_boundaries(chunk_size, numpy_lanes):
    """The carried boundary column survives the word-level kernel."""
    module = make_module("cla_adder", 4)
    bits = _stream(module, 230, seed=4)
    _lane_parity(module, bits, chunk_size=chunk_size, glitch_weight=0.5)


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_auto_resolution_thresholds():
    """auto picks the compiled tape once a stream fills a word."""
    module = make_module("ripple_adder", 4)
    sim = PowerSimulator(module.compiled, engine="auto")
    assert sim.resolve_engine(AUTO_PACKED_MIN_CYCLES - 1) == "bool"
    assert sim.resolve_engine(AUTO_PACKED_MIN_CYCLES) == "compiled"
    assert sim.resolve_engine(10**7) == "compiled"
    assert PowerSimulator(module.compiled, engine="bool").resolve_engine(
        10**6
    ) == "bool"


def test_unknown_engine_rejected():
    """The simulator and the hotspot report share one engine check."""
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 80, seed=6)
    for engine in ("simd", "packed"):
        with pytest.raises(ValueError, match="engine must be one of"):
            PowerSimulator(module.compiled, engine=engine)
        with pytest.raises(ValueError, match="engine must be one of"):
            net_power_breakdown(module.compiled, bits, engine=engine)


def test_packed_unavailable_falls_back(monkeypatch):
    module = make_module("ripple_adder", 4)
    monkeypatch.setattr("repro.circuit.power.PACKED_AVAILABLE", False)
    sim = PowerSimulator(module.compiled, engine="auto")
    assert sim.resolve_engine(10**6) == "bool"
    with pytest.raises(ValueError, match="little-endian"):
        PowerSimulator(module.compiled, engine="compiled")


def test_stats_record_resolved_engine():
    module = make_module("ripple_adder", 4)
    bits = _stream(module, 130, seed=6)
    sim = PowerSimulator(module.compiled, engine="auto")
    trace = sim.simulate(bits)
    assert sim.last_stats.engine == "compiled"
    assert sim.last_stats.n_cycles == 129
    assert sim.last_stats.total_toggles == int(trace.total_toggles.sum())
    assert sim.last_stats.seconds >= 0.0
    sim.simulate(bits[:3])
    assert sim.last_stats.engine == "bool"


# ----------------------------------------------------------------------
# Packing primitives
# ----------------------------------------------------------------------
def test_pack_unpack_round_trip():
    rng = np.random.default_rng(7)
    for n_lanes in (1, 63, 64, 65, 130):
        rows = rng.integers(0, 2, size=(5, n_lanes)).astype(bool)
        words = pack_lanes(rows)
        assert words.shape == (5, n_words_for(n_lanes))
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(
            unpack_lanes(words, n_lanes), rows.astype(np.uint8)
        )


def test_pack_lane_bit_layout():
    """Lane k of word w is pattern 64*w + k."""
    rows = np.zeros((1, 130), dtype=bool)
    rows[0, 3] = True
    rows[0, 64] = True
    rows[0, 129] = True
    words = pack_lanes(rows)
    assert words[0, 0] == np.uint64(1) << np.uint64(3)
    assert words[0, 1] == np.uint64(1)
    assert words[0, 2] == np.uint64(1) << np.uint64(1)


def test_extract_inject_lane():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 2, size=(6, 70)).astype(bool)
    words = pack_lanes(rows)
    np.testing.assert_array_equal(extract_lane(words, 69), rows[:, 69])
    column = ~rows[:, 69]
    inject_lane(words, 69, column)
    np.testing.assert_array_equal(extract_lane(words, 69), column)
    # Other lanes untouched.
    np.testing.assert_array_equal(
        unpack_lanes(words, 69), rows[:, :69].astype(np.uint8)
    )


def test_popcount_matches_python():
    rng = np.random.default_rng(9)
    words = rng.integers(0, 2**63, size=(4, 5), dtype=np.uint64)
    expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
    got = popcount(words)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, expected.astype(np.uint64))


def test_popcount_lut_fallback_matches(monkeypatch):
    rng = np.random.default_rng(10)
    words = rng.integers(0, 2**63, size=(3, 7), dtype=np.uint64)
    fast = popcount(words)
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    np.testing.assert_array_equal(popcount(words), fast)


def test_popcount_lut_fallback_edge_words(monkeypatch):
    """The LUT path on the byte-boundary words the random draw can miss."""
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    words = np.array(
        [0, 1, 2**63, 2**64 - 1, 0x0101010101010101, 0xFF00FF00FF00FF00],
        dtype=np.uint64,
    )
    np.testing.assert_array_equal(
        popcount(words), np.array([0, 1, 1, 64, 8, 32], dtype=np.uint64)
    )


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_popcount_lut_property(values):
        """LUT fallback == bin().count('1') for arbitrary uint64 words."""
        words = np.array(values, dtype=np.uint64)
        saved = packed_mod._BITWISE_COUNT
        packed_mod._BITWISE_COUNT = None
        try:
            got = popcount(words)
        finally:
            packed_mod._BITWISE_COUNT = saved
        expected = [bin(v).count("1") for v in values]
        np.testing.assert_array_equal(got, np.array(expected, dtype=np.uint64))


@pytest.mark.slow
@pytest.mark.parametrize("kind", module_kinds())
def test_parity_every_module_kind_lut_fallback(kind, monkeypatch):
    """The full compiled-vs-bool sweep with np.bitwise_count patched away.

    Covers the 8-bit LUT popcount path end to end (the hotspot report's
    ToggleAccumulator per-row totals, next to the charge trace), not
    just the popcount helper in isolation.
    """
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    _parity(module, bits)


@pytest.mark.fast
@pytest.mark.parametrize("kind", FAST_SWEEP_KINDS)
def test_parity_fast_subset_lut_fallback(kind, monkeypatch):
    """Tier-1 trimmed variant of the LUT-fallback parity sweep."""
    monkeypatch.setattr(packed_mod, "_BITWISE_COUNT", None)
    module = make_module(kind, SWEEP_WIDTH)
    bits = _stream(module, 130, seed=hash(kind) % 2**32)
    _parity(module, bits)


# ----------------------------------------------------------------------
# ToggleAccumulator
# ----------------------------------------------------------------------
def test_accumulator_counts_match_dense():
    rng = np.random.default_rng(11)
    n_rows, n_lanes = 9, 130
    n_words = n_words_for(n_lanes)
    dense = np.zeros((n_rows, n_lanes), dtype=np.uint32)
    accumulator = ToggleAccumulator()
    for _ in range(23):
        mask = rng.integers(0, 2, size=(n_rows, n_lanes)).astype(bool)
        dense += mask
        accumulator.add(pack_lanes(mask, n_words))
    decoded = accumulator.decode(n_lanes)
    assert decoded.dtype == np.uint8  # 23 < 2**8 -> narrow path
    np.testing.assert_array_equal(decoded.astype(np.uint32), dense)
    np.testing.assert_array_equal(
        accumulator.per_row_totals(n_rows),
        dense.sum(axis=1).astype(np.int64),
    )


def test_accumulator_wide_counts():
    """More than 8 planes (counts >= 256) switch decode to uint32."""
    n_lanes = 3
    ones = pack_lanes(np.ones((2, n_lanes), dtype=bool))
    accumulator = ToggleAccumulator()
    for _ in range(300):
        accumulator.add(ones)
    decoded = accumulator.decode(n_lanes)
    assert decoded.dtype == np.uint32
    assert (decoded == 300).all()
    np.testing.assert_array_equal(
        accumulator.per_row_totals(2), np.full(2, 300 * n_lanes)
    )


def test_accumulator_empty_decode_raises():
    with pytest.raises(ValueError, match="empty"):
        ToggleAccumulator().decode(4)


# ----------------------------------------------------------------------
# Hotspot engine rule
# ----------------------------------------------------------------------
def test_hotspots_engine_parity():
    """The hotspot report's default ``auto`` matches the bool report."""
    module = make_module("booth_wallace_multiplier", 4)
    bits = _stream(module, 150, seed=15)
    ref = net_power_breakdown(module.compiled, bits, engine="bool")
    got = net_power_breakdown(module.compiled, bits)
    assert [(h.net, h.toggles) for h in ref] == [
        (h.net, h.toggles) for h in got
    ]
    np.testing.assert_allclose(
        [h.charge for h in ref], [h.charge for h in got], rtol=0, atol=0
    )


def test_hotspots_auto_follows_simulator_rule(compiled_toggle_bug):
    """``auto`` hotspots switch to the compiled tape exactly where
    :meth:`PowerSimulator.resolve_engine` does: with the compiled kernel
    corrupted, ``auto`` tracks ``bool`` below the threshold and
    ``compiled`` from it on."""
    module = make_module("ripple_adder", 4)
    for n_cycles, engine in (
        (AUTO_PACKED_MIN_CYCLES - 1, "bool"),
        (AUTO_PACKED_MIN_CYCLES, "compiled"),
    ):
        bits = _stream(module, n_cycles + 1, seed=16)
        assert _hotspot_toggles(module, bits, "bool") != _hotspot_toggles(
            module, bits, "compiled"
        )
        assert _hotspot_toggles(module, bits, "auto") == _hotspot_toggles(
            module, bits, engine
        )
