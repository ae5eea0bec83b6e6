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
    """Corrupt the compiled kernel: one flipped toggle-plane bit per chunk.

    The native chunk call (:meth:`ChunkKernel.run`, which relaxes and
    reduces in C) returns lane 0 with the extra toggle and unit charge
    that flipping a clear plane-0 bit of a unit-capacitance net adds.
    Every caller of :meth:`BitwiseProgram.relax` (the numpy chunk path
    and the hotspot report) sees a flipped plane bit.  Fuzz and parity
    checks must flag the compiled engine on either path.
    """
    from repro.circuit.native import ChunkKernel
    from repro.circuit.program import BitwiseProgram

    real_run = ChunkKernel.run
    real_relax = BitwiseProgram.relax

    def corrupted_run(self, *args, **kwargs):
        charge, totals = real_run(self, *args, **kwargs)
        charge[0] += 1.0
        totals[0] += 1
        return charge, totals

    def corrupted_relax(self, *args, **kwargs):
        final, accumulator, steps = real_relax(self, *args, **kwargs)
        if accumulator.planes:
            accumulator.planes[0][0, 0] ^= np.uint64(1)
        return final, accumulator, steps

    monkeypatch.setattr(ChunkKernel, "run", corrupted_run)
    monkeypatch.setattr(BitwiseProgram, "relax", corrupted_relax)
