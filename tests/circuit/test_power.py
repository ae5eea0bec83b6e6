"""PowerSimulator: charge accounting, chunking, glitch weighting."""

import numpy as np
import pytest

from repro.circuit.packed import PACKED_AVAILABLE
from repro.circuit.power import PowerSimulator, PowerTrace
from repro.modules import make_module


@pytest.fixture(scope="module")
def sim8():
    return PowerSimulator(make_module("ripple_adder", 8).netlist)


def _random_bits(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n, m)).astype(bool)


def test_trace_length(sim8):
    trace = sim8.simulate(_random_bits(100, 16))
    assert trace.n_cycles == 99
    assert trace.charge.shape == (99,)
    assert trace.total_toggles.shape == (99,)


def test_charge_nonnegative(sim8):
    trace = sim8.simulate(_random_bits(200, 16, seed=1))
    assert (trace.charge >= 0).all()


def test_constant_stream_zero_charge(sim8):
    bits = np.tile(_random_bits(1, 16, seed=2), (20, 1))
    trace = sim8.simulate(bits)
    assert np.all(trace.charge == 0.0)
    assert np.all(trace.total_toggles == 0)


def test_single_pattern_empty_trace(sim8):
    trace = sim8.simulate(_random_bits(1, 16))
    assert trace.n_cycles == 0
    assert trace.average_charge == 0.0
    assert trace.total_charge == 0.0


def test_wrong_width_rejected(sim8):
    with pytest.raises(ValueError, match="expected"):
        sim8.simulate(_random_bits(10, 15))


def test_chunking_is_transparent():
    module = make_module("ripple_adder", 6)
    bits = _random_bits(301, 12, seed=3)
    big = PowerSimulator(module.netlist, chunk_size=4096).simulate(bits)
    small = PowerSimulator(module.netlist, chunk_size=7).simulate(bits)
    assert np.allclose(big.charge, small.charge)
    assert np.array_equal(big.total_toggles, small.total_toggles)


def test_zero_delay_leq_glitchy():
    module = make_module("csa_multiplier", 4)
    bits = _random_bits(300, 8, seed=4)
    glitchy = PowerSimulator(module.netlist, glitch_aware=True).simulate(bits)
    clean = PowerSimulator(module.netlist, glitch_aware=False).simulate(bits)
    assert glitchy.total_charge > clean.total_charge
    assert np.all(glitchy.charge >= clean.charge - 1e-9)


def test_glitch_weight_interpolates():
    module = make_module("csa_multiplier", 4)
    bits = _random_bits(200, 8, seed=5)
    full = PowerSimulator(module.netlist, glitch_weight=1.0).simulate(bits)
    none = PowerSimulator(module.netlist, glitch_aware=False).simulate(bits)
    half = PowerSimulator(module.netlist, glitch_weight=0.5).simulate(bits)
    zero = PowerSimulator(module.netlist, glitch_weight=0.0).simulate(bits)
    assert np.allclose(zero.charge, none.charge)
    expected_half = 0.5 * (full.charge + none.charge)
    assert np.allclose(half.charge, expected_half)


def test_glitch_weight_validation():
    module = make_module("ripple_adder", 4)
    with pytest.raises(ValueError, match="glitch_weight"):
        PowerSimulator(module.netlist, glitch_weight=1.5)


def test_chunk_size_validation():
    module = make_module("ripple_adder", 4)
    with pytest.raises(ValueError, match="chunk_size"):
        PowerSimulator(module.netlist, chunk_size=0)


def test_average_charge_helper(sim8):
    bits = _random_bits(50, 16, seed=6)
    assert sim8.average_charge(bits) == pytest.approx(
        sim8.simulate(bits).average_charge
    )


def test_more_activity_more_charge(sim8):
    """Full-inversion stream must out-consume a single-LSB-toggle stream."""
    base = _random_bits(1, 16, seed=7)[0]
    flip_all = np.array([base, ~base] * 25)
    flip_one = np.array([base, base ^ (np.arange(16) == 0)] * 25)
    assert (
        sim8.simulate(flip_all).total_charge
        > sim8.simulate(flip_one).total_charge
    )


def test_power_trace_properties():
    trace = PowerTrace(
        charge=np.array([1.0, 2.0, 3.0]),
        total_toggles=np.array([1, 2, 3]),
    )
    assert trace.n_cycles == 3
    assert trace.average_charge == pytest.approx(2.0)
    assert trace.total_charge == pytest.approx(6.0)


def test_accepts_compiled_netlist():
    from repro.circuit.compiled import CompiledNetlist

    module = make_module("ripple_adder", 4)
    compiled = CompiledNetlist(module.netlist)
    sim = PowerSimulator(compiled)
    assert sim.compiled is compiled


# ----------------------------------------------------------------------
# Chunk invariance: simulate() must be bitwise indifferent to chunk_size
# across every engine configuration, including the glitch-weighting path
# (which takes a different branch) and degenerate stream lengths.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def csa4_netlist():
    return make_module("csa_multiplier", 4).netlist


@pytest.mark.parametrize("engine", [
    "bool",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not PACKED_AVAILABLE, reason="compiled engine needs little-endian"
    )),
])
@pytest.mark.parametrize("glitch_aware", [True, False])
@pytest.mark.parametrize("glitch_weight", [1.0, 0.5])
@pytest.mark.parametrize("chunk_size", [1, 7, 2048])
def test_chunk_invariance(
    csa4_netlist, chunk_size, glitch_weight, glitch_aware, engine
):
    bits = _random_bits(129, 8, seed=11)
    reference = PowerSimulator(
        csa4_netlist,
        glitch_aware=glitch_aware,
        glitch_weight=glitch_weight,
        engine=engine,
    ).simulate(bits)
    chunked = PowerSimulator(
        csa4_netlist,
        glitch_aware=glitch_aware,
        glitch_weight=glitch_weight,
        chunk_size=chunk_size,
        engine=engine,
    ).simulate(bits)
    # Toggle counts are integers and must match exactly; the charge
    # dot-product reduction order differs per chunk shape, so allow
    # float-summation noise only.
    np.testing.assert_array_equal(
        chunked.total_toggles, reference.total_toggles
    )
    np.testing.assert_allclose(
        chunked.charge, reference.charge, rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("glitch_aware", [True, False])
@pytest.mark.parametrize("glitch_weight", [1.0, 0.5])
@pytest.mark.parametrize("n_patterns", [0, 1])
def test_degenerate_streams_empty_trace(
    csa4_netlist, n_patterns, glitch_weight, glitch_aware
):
    """0- and 1-pattern streams have no transition: empty, not crashing."""
    simulator = PowerSimulator(
        csa4_netlist,
        glitch_aware=glitch_aware,
        glitch_weight=glitch_weight,
        chunk_size=1,
    )
    trace = simulator.simulate(np.zeros((n_patterns, 8), dtype=bool))
    assert trace.n_cycles == 0
    assert trace.charge.shape == (0,)
    assert trace.total_toggles.shape == (0,)
    assert trace.average_charge == 0.0
