"""Shared fixtures: small cached modules and a fast experiment harness."""

import numpy as np
import pytest

from repro.eval import ExperimentConfig, Harness
from repro.modules import make_module


@pytest.fixture(scope="session")
def small_harness():
    """A harness with reduced pattern counts for fast experiment tests."""
    return Harness(ExperimentConfig(n_characterization=1500, n_eval=1200))


@pytest.fixture(scope="session")
def ripple8():
    return make_module("ripple_adder", 8)


@pytest.fixture(scope="session")
def csa4():
    return make_module("csa_multiplier", 4)


@pytest.fixture(scope="session")
def absval8():
    return make_module("absval", 8)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def compiled_toggle_bug(monkeypatch):
    """Corrupt the compiled kernel: flip one toggle-plane bit per relax.

    Every caller of :meth:`BitwiseProgram.relax` (the simulator's chunk
    kernel, native or numpy, and the hotspot report) sees the flipped
    bit, so fuzz and parity checks must flag the compiled engine.
    """
    from repro.circuit.program import BitwiseProgram

    real = BitwiseProgram.relax

    def corrupted(self, *args, **kwargs):
        final, accumulator, steps = real(self, *args, **kwargs)
        if accumulator.planes:
            accumulator.planes[0][0, 0] ^= np.uint64(1)
        return final, accumulator, steps

    monkeypatch.setattr(BitwiseProgram, "relax", corrupted)
