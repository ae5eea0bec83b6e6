"""Calibration: identity contract, legacy parity, node physics, inventory."""

import numpy as np
import pytest

from repro.core.estimator import EstimationResult
from repro.modules import make_module
from repro.tech import (
    CAP_UNIT_FARAD,
    CalibratedEstimate,
    Calibration,
    OperatingPoint,
    gate_area_units,
    get_node,
)


@pytest.fixture(scope="module")
def adder():
    return make_module("ripple_adder", 4)


# ----------------------------------------------------------------------
# Identity mode
# ----------------------------------------------------------------------
def test_identity_apply_returns_same_object():
    estimate = EstimationResult(average_charge=12.5, method="trace")
    identity = Calibration()
    assert identity.is_identity
    assert identity.apply(estimate) is estimate


def test_identity_physical_block_is_none():
    assert Calibration().physical_block(42.0) is None
    assert Calibration.from_spec().physical_block(42.0) is None


def test_identity_has_no_voltage():
    with pytest.raises(ValueError, match="identity"):
        _ = Calibration().effective_vdd


# ----------------------------------------------------------------------
# Legacy voltage-only mode (the absorbed OperatingPoint)
# ----------------------------------------------------------------------
def test_legacy_mode_matches_operating_point():
    cal = Calibration.from_spec(vdd=2.5)
    op = OperatingPoint(vdd=2.5, f_clk=50e6)
    assert cal.cap_farad == CAP_UNIT_FARAD
    assert cal.effective_f_clk == op.f_clk
    charge = 123.456
    assert cal.power_watts(charge) == pytest.approx(
        op.average_power(charge), rel=1e-12
    )
    assert cal.operating_point() == op


def test_legacy_mode_has_no_area(adder):
    cal = Calibration.from_spec(vdd=2.5)
    with pytest.raises(ValueError, match="node"):
        cal.area_m2(adder)
    with pytest.raises(ValueError, match="node"):
        cal.leakage_watts(adder)
    # apply still works — the area/leakage slots just stay empty.
    estimate = EstimationResult(average_charge=10.0, method="trace")
    physical = cal.apply(estimate, netlist=adder)
    assert physical.area_m2 is None and physical.leakage_watts is None
    assert physical.total_power_watts == physical.power_watts


# ----------------------------------------------------------------------
# Node mode
# ----------------------------------------------------------------------
def test_node_mode_cv2_physics():
    node = get_node("45nm")
    cal = Calibration(node=node)
    charge = 100.0
    assert cal.charge_coulombs(charge) == pytest.approx(
        charge * node.cap_per_unit * node.nominal_vdd
    )
    assert cal.energy_joules(charge) == pytest.approx(
        charge * node.cap_per_unit * node.nominal_vdd**2
    )
    assert cal.power_watts(charge) == pytest.approx(
        charge * node.cap_per_unit * node.nominal_vdd**2
        * node.nominal_f_clk
    )


def test_node_mode_vectorized():
    cal = Calibration(node=get_node("90nm"))
    charges = np.array([1.0, 2.0, 4.0])
    assert np.allclose(cal.energy_joules(charges),
                       cal.energy_joules(1.0) * charges)


def test_apply_with_netlist_fills_area_and_leakage(adder):
    node = get_node("22nm")
    cal = Calibration(node=node)
    estimate = EstimationResult(average_charge=20.0, method="trace")
    physical = cal.apply(estimate, netlist=adder)
    assert isinstance(physical, CalibratedEstimate)
    units = gate_area_units(adder)
    assert physical.area_m2 == pytest.approx(units * node.area_per_unit)
    assert physical.leakage_watts == pytest.approx(
        units * node.leakage_per_unit
    )
    assert physical.normalized is estimate
    assert physical.total_power_watts == pytest.approx(
        physical.power_watts + physical.leakage_watts
    )
    block = physical.to_dict()
    assert block["node"] == "22nm"
    assert {"charge_coulombs", "energy_joules", "power_watts",
            "area_m2", "leakage_watts", "table_version"} <= set(block)


def test_off_nominal_overrides():
    node = get_node("45nm")
    cal = Calibration.from_spec(node="45nm", vdd=0.8, f_clk=5e8)
    assert cal.effective_vdd == 0.8
    assert cal.effective_f_clk == 5e8
    nominal = Calibration(node=node)
    # Lower voltage and clock means strictly less dynamic power.
    assert cal.power_watts(50.0) < nominal.power_watts(50.0)


def test_from_spec_validation():
    with pytest.raises(ValueError):
        Calibration.from_spec(node="3nm")
    with pytest.raises(ValueError):
        Calibration.from_spec(vdd=-1.0)
    with pytest.raises(ValueError):
        Calibration.from_spec(f_clk=0.0)
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            Calibration.from_spec(vdd=value)
        with pytest.raises(ValueError, match="finite"):
            Calibration.from_spec(f_clk=value)


def test_snapshot_round_trip():
    original = Calibration.from_spec(node="65nm", vdd=1.0, f_clk=3e8)
    restored = Calibration.from_dict(original.to_dict())
    assert restored.node_name == "65nm"
    assert restored.effective_vdd == original.effective_vdd
    assert restored.effective_f_clk == original.effective_f_clk
    # Identity round-trips to identity.
    identity = Calibration.from_dict(Calibration().to_dict())
    assert identity.is_identity


# ----------------------------------------------------------------------
# Gate inventory
# ----------------------------------------------------------------------
def test_gate_area_units_accepts_all_shapes(adder):
    units = gate_area_units(adder)
    assert units > 0
    assert gate_area_units(adder.netlist) == pytest.approx(units)
    assert gate_area_units(adder.compiled) == pytest.approx(units)


def test_gate_area_units_scales_with_width():
    small = gate_area_units(make_module("ripple_adder", 4))
    large = gate_area_units(make_module("ripple_adder", 16))
    assert large > small


def test_gate_area_units_rejects_garbage():
    with pytest.raises(TypeError):
        gate_area_units(object())
