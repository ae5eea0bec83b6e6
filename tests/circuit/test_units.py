"""Physical-unit conversions."""

import numpy as np
import pytest

from repro.circuit import CAP_UNIT_FARAD
from repro.tech import OperatingPoint


def test_cycle_charge():
    op = OperatingPoint(vdd=2.0, f_clk=1e6)
    # 100 cap units * 1fF * 2V = 200 fC
    assert op.cycle_charge(100.0) == pytest.approx(200e-15)


def test_cycle_energy():
    op = OperatingPoint(vdd=2.0, f_clk=1e6)
    assert op.cycle_energy(100.0) == pytest.approx(400e-15)


def test_average_power():
    op = OperatingPoint(vdd=2.0, f_clk=1e6)
    # 400 fJ per cycle * 1 MHz = 0.4 uW
    assert op.average_power(100.0) == pytest.approx(0.4e-6)


def test_vectorized_conversion():
    op = OperatingPoint(vdd=1.0, f_clk=1e6)
    charges = op.cycle_charge(np.array([1.0, 2.0]))
    assert np.allclose(charges, [1e-15, 2e-15])


def test_scaled():
    op = OperatingPoint(vdd=2.5, f_clk=50e6)
    low = op.scaled(vdd=1.0)
    assert low.vdd == 1.0 and low.f_clk == 50e6
    fast = op.scaled(f_clk=100e6)
    assert fast.vdd == 2.5 and fast.f_clk == 100e6


def test_quadratic_voltage_scaling():
    """Halving vdd quarters the energy — the low-power design lever."""
    hi = OperatingPoint(vdd=2.0, f_clk=1e6)
    lo = hi.scaled(vdd=1.0)
    assert lo.average_power(100.0) == pytest.approx(
        hi.average_power(100.0) / 4.0
    )


def test_validation():
    with pytest.raises(ValueError):
        OperatingPoint(vdd=0.0)
    with pytest.raises(ValueError):
        OperatingPoint(f_clk=0.0)


def test_cap_unit_constant():
    assert CAP_UNIT_FARAD == pytest.approx(1e-15)


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        OperatingPoint(vdd=-1.0)
    with pytest.raises(ValueError):
        OperatingPoint(f_clk=-5e6)


def test_defaults_match_paper_era():
    op = OperatingPoint()
    assert op.vdd == pytest.approx(2.5)
    assert op.f_clk == pytest.approx(50e6)


def test_zero_switched_cap_is_zero_power():
    op = OperatingPoint(vdd=3.3, f_clk=100e6)
    assert op.cycle_charge(0.0) == 0.0
    assert op.cycle_energy(0.0) == 0.0
    assert op.average_power(0.0) == 0.0


def test_legacy_numerics_bit_identical_through_calibration():
    """Calibration(vdd=...) reproduces OperatingPoint to 1e-12."""
    from repro.tech import Calibration

    op = OperatingPoint(vdd=2.5, f_clk=50e6)
    cal = Calibration.from_spec(vdd=2.5)
    for charge in (0.0, 1.0, 26.36, 1234.5):
        assert cal.charge_coulombs(charge) == pytest.approx(
            op.cycle_charge(charge), rel=1e-12
        )
        assert cal.energy_joules(charge) == pytest.approx(
            op.cycle_energy(charge), rel=1e-12
        )
        assert cal.power_watts(charge) == pytest.approx(
            op.average_power(charge), rel=1e-12
        )
