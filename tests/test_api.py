"""The public Session facade: parity with the layered API, validation.

Every facade call must reproduce the layered calls exactly (same seeds,
same config plumbing) — parity is pinned at 1e-9 or exact array
equality.  Parameter spellings removed with the rename shims must fail
with Python's own ``TypeError``.
"""

import warnings

import numpy as np
import pytest

import repro
import repro.circuit
from repro.circuit import ENGINES, PowerSimulator
from repro.core import characterize_module
from repro.eval import ExperimentConfig
from repro.modules import make_module
from repro.runtime import (
    CharacterizationJob,
    characterization_seed,
    characterize_jobs,
)
from repro.stats.wordstats import WordStats

CONFIG = ExperimentConfig(n_characterization=300, seed=11)


@pytest.fixture(scope="module")
def session():
    return repro.Session(config=CONFIG)


def test_package_exports_facade():
    assert "Session" in repro.__all__
    assert repro.Session is not None
    assert "Session" in dir(repro)


def test_characterize_parity(session):
    result = session.characterize("ripple_adder", 3)
    direct = characterize_module(
        make_module("ripple_adder", 3),
        n_patterns=CONFIG.n_characterization,
        seed=characterization_seed(CONFIG.seed, 3, False, "ripple_adder"),
        enhanced=False,
        stimulus=CONFIG.basic_stimulus,
    )
    np.testing.assert_array_equal(
        result.model.coefficients, direct.model.coefficients
    )
    np.testing.assert_array_equal(result.model.counts, direct.model.counts)


def test_characterize_enhanced_default():
    enhanced_session = repro.Session(config=CONFIG, enhanced=True)
    result = enhanced_session.characterize("ripple_adder", 3)
    assert result.enhanced is not None
    basic = enhanced_session.characterize("ripple_adder", 3, enhanced=False)
    assert basic.enhanced is None


def test_characterize_many_matches_single(session):
    report = session.characterize_many([
        ("ripple_adder", 3),
        ("ripple_adder", 4, True),
    ])
    assert report.failures == 0
    single = session.characterize("ripple_adder", 3)
    np.testing.assert_array_equal(
        report.results[0].model.coefficients, single.model.coefficients
    )
    assert report.results[1].enhanced is not None


def test_estimate_parity(session, rng):
    served = session.registry().get("ripple_adder", 3, enhanced=False)
    bits = rng.integers(0, 2, size=(24, served.module.input_bits))
    facade = session.estimate("ripple_adder", 3, bits)
    direct = served.estimator.estimate_from_bits(bits.astype(bool))
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )
    np.testing.assert_allclose(facade.cycle_charge, direct.cycle_charge)


def test_estimate_accepts_word_streams(session, rng):
    from repro.serve.batching import streams_to_bits
    from repro.signals.encoding import signed_range

    served = session.registry().get("ripple_adder", 3, enhanced=False)
    words = [
        rng.integers(*signed_range(w), endpoint=True, size=12).tolist()
        for _, w in served.module.operand_specs
    ]
    facade = session.estimate("ripple_adder", 3, words)
    direct = served.estimator.estimate_from_bits(
        streams_to_bits(served.module, words)
    )
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


def test_estimate_rejects_garbage(session):
    with pytest.raises(TypeError, match="stream"):
        session.estimate("ripple_adder", 3, "not a stream")


@pytest.mark.parametrize("stream", [
    pytest.param(np.full((4, 6), 2), id="twos"),
    pytest.param(np.full((4, 6), -1), id="minus-ones"),
    pytest.param([[2] * 6] * 4, id="twos-rows"),
    pytest.param(np.zeros((4, 5), dtype=int), id="wrong-columns"),
])
def test_estimate_rejects_non_bit_matrices(session, stream):
    # ripple_adder/3 has 6 input bits; only an [n, 6] 0/1 matrix is valid.
    with pytest.raises(ValueError):
        session.estimate("ripple_adder", 3, stream)


def test_estimate_analytic_parity(session):
    stats = [
        WordStats(mean=0.0, variance=3.0, rho=0.4),
        WordStats(mean=1.0, variance=2.0, rho=0.0),
    ]
    served = session.registry().get("ripple_adder", 3, enhanced=False)
    facade = session.estimate_analytic(
        "ripple_adder", 3,
        [{"mean": 0.0, "variance": 3.0, "rho": 0.4},
         {"mean": 1.0, "variance": 2.0}],
    )
    direct = served.estimator.estimate_analytic(served.module, stats)
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


def test_estimate_distribution_parity(session):
    served = session.registry().get("ripple_adder", 3, enhanced=False)
    width = served.estimator.model.width
    pmf = np.full(width + 1, 1.0 / (width + 1))
    facade = session.estimate_distribution("ripple_adder", 3, pmf.tolist())
    direct = served.estimator.estimate_from_distribution(pmf)
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


@pytest.mark.parametrize("pmf", [
    pytest.param([-1.0, 2.0] + [0.0] * 5, id="negative"),
    pytest.param([0.5] * 7, id="sum-3.5"),
    pytest.param([0.0] * 7, id="all-zero"),
    pytest.param([float("nan")] + [0.0] * 5 + [1.0], id="nan"),
    pytest.param([float("inf")] + [0.0] * 6, id="inf"),
])
def test_estimate_distribution_rejects_non_pmfs(session, pmf):
    # ripple_adder/3: 6 input bits, so 7 Hd classes.
    with pytest.raises(ValueError, match="distribution"):
        session.estimate_distribution("ripple_adder", 3, pmf)


@pytest.mark.parametrize("bad", [
    pytest.param({"mean": 0.0, "variance": -5.0, "rho": 0.0},
                 id="negative-variance"),
    pytest.param({"mean": 0.0, "variance": 3.0, "rho": 3.0}, id="rho-3"),
    pytest.param({"mean": float("nan"), "variance": 3.0}, id="nan-mean"),
    pytest.param({"mean": 0.0, "variance": float("inf")}, id="inf-variance"),
    pytest.param(WordStats(mean=0.0, variance=3.0, rho=-1.5),
                 id="wordstats-rho"),
])
def test_estimate_analytic_rejects_invalid_stats(session, bad):
    good = {"mean": 1.0, "variance": 2.0, "rho": 0.0}
    with pytest.raises(ValueError, match="rho"):
        session.estimate_analytic("ripple_adder", 3, [bad, good])


def test_estimate_rejects_fractional_words(session):
    with pytest.raises(ValueError, match="integers"):
        session.estimate("ripple_adder", 3, [[1.5, 2], [3, 0]])


def test_registry_is_cached_per_session(session):
    assert session.registry() is session.registry()
    estimator = session.estimator("ripple_adder", 3)
    assert estimator.estimate_from_distribution is not None


def test_session_cache_roundtrip(tmp_path):
    first = repro.Session(config=CONFIG, cache_dir=tmp_path)
    first.characterize("ripple_adder", 3)
    warm = repro.Session(config=CONFIG, cache_dir=tmp_path)
    warm.characterize("ripple_adder", 3)
    assert warm.cache.hits == 1


def test_session_validation():
    with pytest.raises(ValueError, match="jobs"):
        repro.Session(jobs=0)
    with pytest.raises(TypeError, match="unexpected"):
        repro.Session(bogus=1)


# ----------------------------------------------------------------------
# Removed spellings fail loudly; engines are validated at the boundary
# ----------------------------------------------------------------------
REQUESTS = [CharacterizationJob("ripple_adder", 2)]

#: The removed rename shims took today's keyword behind a prefix.
OLD_PREFIX = {"engine": "simulation_", "jobs": "n_"}


def _old(**kwargs):
    """Today's keywords, respelled the way the removed shims took them."""
    return {OLD_PREFIX[name] + name: value for name, value in kwargs.items()}


#: Spellings removed with the rename shims, each as a call that must fail.
REMOVED_SPELLINGS = {
    "Session-engine": lambda module: repro.Session(
        config=CONFIG, **_old(engine="bool")
    ),
    "Session-jobs": lambda module: repro.Session(
        config=CONFIG, **_old(jobs=2)
    ),
    "PowerSimulator-engine": lambda module: PowerSimulator(
        module.compiled, **_old(engine="bool")
    ),
    "characterize_module-engine": lambda module: characterize_module(
        module, n_patterns=200, **_old(engine="bool")
    ),
    "characterize_jobs-jobs": lambda module: characterize_jobs(
        REQUESTS, config=CONFIG, **_old(jobs=1)
    ),
    "characterize_jobs-request-list": lambda module: characterize_jobs(
        jobs=REQUESTS, config=CONFIG
    ),
    "circuit.OperatingPoint": lambda module: repro.circuit.OperatingPoint,
}


@pytest.mark.parametrize("name", sorted(REMOVED_SPELLINGS))
def test_removed_spellings_raise(name, ripple8):
    """Old keywords are Python's own TypeError; the moved OperatingPoint
    is an AttributeError (it lives in repro.tech)."""
    expected = AttributeError if name.startswith("circuit.") else TypeError
    with pytest.raises(expected):
        REMOVED_SPELLINGS[name](ripple8)


@pytest.mark.parametrize("engine", ["packed", "simd"])
def test_session_rejects_unknown_engine(engine):
    """Bad engines fail at construction, listing the choices, not deep
    inside the first characterization."""
    with pytest.raises(ValueError, match="engine must be one of") as info:
        repro.Session(config=CONFIG, engine=engine)
    assert all(name in str(info.value) for name in ENGINES)
    with pytest.raises(ValueError, match="engine must be one of"):
        repro.Session(config=ExperimentConfig(engine=engine))


def test_new_spellings_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repro.Session(config=CONFIG, engine="bool", jobs=2)
        characterize_jobs(REQUESTS, config=CONFIG, jobs=1)


# ----------------------------------------------------------------------
# Technology calibration through the facade (repro.tech)
# ----------------------------------------------------------------------
def test_estimate_with_node_wraps_physical(session, rng):
    from repro.tech import CalibratedEstimate, get_node

    bits = rng.integers(0, 2, size=(60, 4)).astype(bool)
    plain = session.estimate("ripple_adder", 2, bits)
    physical = session.estimate("ripple_adder", 2, bits, node="45nm")
    assert isinstance(physical, CalibratedEstimate)
    # Post-hoc: the normalized figure is bit-identical to the plain call.
    assert physical.average_charge_units == plain.average_charge
    node = get_node("45nm")
    assert physical.energy_joules == pytest.approx(
        plain.average_charge * node.cap_per_unit * node.nominal_vdd**2
    )
    assert physical.area_m2 > 0 and physical.leakage_watts > 0


def test_estimate_without_node_returns_bare_result(session, rng):
    bits = rng.integers(0, 2, size=(40, 4)).astype(bool)
    result = session.estimate("ripple_adder", 2, bits)
    assert not hasattr(result, "physical")
    assert not hasattr(result, "energy_joules")


def test_estimate_analytic_with_node(session):
    physical = session.estimate_analytic(
        "ripple_adder", 2,
        operand_stats=[{"mean": 0.0, "variance": 1.0, "rho": 0.0}] * 2,
        node="90nm", vdd=1.0,
    )
    assert physical.node == "90nm" and physical.vdd == 1.0
    assert physical.power_watts > 0


def test_stream_with_node_carries_physical(session, rng):
    stream = session.stream("ripple_adder", 2, node="22nm")
    bits = rng.integers(0, 2, size=(30, 4))
    running = stream.feed(bits)
    assert running.physical is not None
    assert running.physical["node"] == "22nm"


def test_facade_rejects_unknown_node(session, rng):
    bits = rng.integers(0, 2, size=(10, 4)).astype(bool)
    with pytest.raises(ValueError, match="unknown technology node"):
        session.estimate("ripple_adder", 2, bits, node="3nm")
