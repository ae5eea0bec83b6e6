"""Landman dual-bit-type model: sign activity, breakpoints, validation."""

import numpy as np
import pytest

from repro.signals import gaussian_stream, make_stream
from repro.stats import DbtModel, WordStats, gaussian_sign_activity, word_stats
from repro.stats.bitstats import transition_probabilities


def test_sign_activity_zero_mean_is_arccos():
    for rho in (-0.5, 0.0, 0.3, 0.9, 0.99):
        assert gaussian_sign_activity(rho) == pytest.approx(
            np.arccos(rho) / np.pi
        )


def test_sign_activity_perfect_correlation():
    assert gaussian_sign_activity(1.0) == pytest.approx(0.0)
    assert gaussian_sign_activity(-1.0) == pytest.approx(1.0)


def test_sign_activity_offset_mean_reduces_switching():
    base = gaussian_sign_activity(0.5, 0.0)
    offset = gaussian_sign_activity(0.5, 2.0)
    assert offset < base


def test_sign_activity_matches_monte_carlo():
    rng = np.random.default_rng(1)
    n = 200000
    rho, h = 0.7, 0.8
    x = rng.standard_normal(n)
    y = rho * x + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
    mc = float(np.mean((x + h > 0) != (y + h > 0)))
    assert gaussian_sign_activity(rho, h) == pytest.approx(mc, abs=0.005)


def test_sign_activity_symmetric_in_mean():
    assert gaussian_sign_activity(0.4, 1.5) == pytest.approx(
        gaussian_sign_activity(0.4, -1.5), abs=1e-6
    )


# ----------------------------------------------------------------------
def test_model_from_constant_stream():
    model = DbtModel.from_wordstats(WordStats(3.0, 0.0, 0.0), 8)
    assert model.n_rand == 0
    assert model.n_sign == 8
    assert model.t_sign == 0.0
    assert model.average_hd() == 0.0


def test_region_sizes_partition_width():
    for dt in ("I", "II", "III", "IV"):
        stream = make_stream(dt, 16, 4000, seed=2)
        model = DbtModel.from_words(stream.words, 16)
        assert model.n_rand + model.n_sign == 16
        assert 0.0 <= model.bp0 <= model.bp1 <= 16.0


def test_random_stream_is_mostly_random_bits():
    stream = make_stream("I", 16, 6000, seed=3)
    model = DbtModel.from_words(stream.words, 16)
    assert model.n_rand >= 13
    assert model.t_sign == pytest.approx(0.5, abs=0.05)


def test_speech_has_large_sign_region():
    stream = make_stream("III", 16, 8000, seed=3)
    model = DbtModel.from_words(stream.words, 16)
    assert model.n_sign >= 3
    assert model.t_sign < 0.15


def test_bit_activities_match_empirical():
    """The 3-region activity profile must track measured bit activities."""
    stream = gaussian_stream(16, 20000, rho=0.95, relative_sigma=0.2, seed=4)
    model = DbtModel.from_words(stream.words, 16)
    predicted = model.bit_activities()
    measured = transition_probabilities(stream.bits())
    # LSB region exact, sign region close, middle within a loose band.
    assert np.allclose(predicted[:6], 0.5, atol=0.02)
    assert abs(predicted[-1] - measured[-1]) < 0.05
    assert np.abs(predicted - measured).mean() < 0.08


def test_average_hd_close_to_empirical():
    for dt, tol in (("I", 0.3), ("II", 0.6), ("III", 0.6), ("IV", 0.8)):
        stream = make_stream(dt, 16, 8000, seed=5)
        model = DbtModel.from_words(stream.words, 16)
        bits = stream.bits()
        empirical = float((bits[1:] != bits[:-1]).sum(axis=1).mean())
        assert model.average_hd() == pytest.approx(empirical, abs=tol), dt


def test_reduced_and_three_region_averages_agree():
    stream = make_stream("III", 16, 8000, seed=6)
    model = DbtModel.from_words(stream.words, 16)
    assert model.average_hd() == pytest.approx(
        model.average_hd_three_region(), abs=0.8
    )


def test_bit_activities_monotone_from_random_to_sign():
    stream = gaussian_stream(16, 10000, rho=0.98, relative_sigma=0.15, seed=7)
    model = DbtModel.from_words(stream.words, 16)
    activity = model.bit_activities()
    assert (np.diff(activity) <= 1e-12).all()  # non-increasing toward MSB


def test_width_validation():
    with pytest.raises(ValueError):
        DbtModel.from_wordstats(WordStats(0.0, 1.0, 0.0), 0)


def test_wider_sigma_moves_bp1_up():
    narrow = DbtModel.from_wordstats(WordStats(0.0, 10.0**2, 0.5), 16)
    wide = DbtModel.from_wordstats(WordStats(0.0, 1000.0**2, 0.5), 16)
    assert wide.bp1 > narrow.bp1


def test_stronger_correlation_shrinks_random_region():
    weak = DbtModel.from_wordstats(WordStats(0.0, 100.0**2, 0.1), 16)
    strong = DbtModel.from_wordstats(WordStats(0.0, 100.0**2, 0.99), 16)
    assert strong.bp0 < weak.bp0
    assert strong.n_rand < weak.n_rand


# ----------------------------------------------------------------------
# Empirical two-region fitting (extension)
# ----------------------------------------------------------------------
def test_from_bit_activities_exact_step():
    activities = np.array([0.5] * 10 + [0.08] * 6)
    model = DbtModel.from_bit_activities(activities)
    assert model.n_rand == 10
    assert model.n_sign == 6
    assert model.t_sign == pytest.approx(0.08)


def test_from_bit_activities_all_random():
    model = DbtModel.from_bit_activities(np.full(8, 0.5))
    assert model.n_rand >= 7  # split position is degenerate at t_sign=0.5
    assert model.average_hd() == pytest.approx(4.0, abs=0.01)


def test_from_bit_activities_constant_stream():
    model = DbtModel.from_bit_activities(np.zeros(8))
    assert model.n_rand == 0
    assert model.t_sign == 0.0


def test_from_bit_activities_matches_gaussian_path():
    """For an AR-Gaussian stream both construction paths agree closely."""
    stream = gaussian_stream(16, 20000, rho=0.95, relative_sigma=0.2, seed=9)
    analytic = DbtModel.from_words(stream.words, 16)
    measured = DbtModel.from_bit_activities(
        transition_probabilities(stream.bits())
    )
    assert abs(analytic.n_rand - measured.n_rand) <= 2
    assert analytic.t_sign == pytest.approx(measured.t_sign, abs=0.05)


def test_from_bit_activities_improves_video_fit():
    """The empirical fit should match a non-Gaussian stream at least as
    well as the Gaussian breakpoint equations (in average Hd)."""
    from repro.core import hd_distribution_from_dbt
    from repro.stats.bitstats import empirical_hd_distribution

    stream = make_stream("IV", 16, 10000, seed=11)
    bits = stream.bits()
    extracted = empirical_hd_distribution(bits)
    gaussian_model = DbtModel.from_words(stream.words, 16)
    empirical_model = DbtModel.from_bit_activities(
        transition_probabilities(bits)
    )
    emp_hd = float((bits[1:] != bits[:-1]).sum(axis=1).mean())
    err_gauss = abs(gaussian_model.average_hd() - emp_hd)
    err_emp = abs(empirical_model.average_hd() - emp_hd)
    assert err_emp <= err_gauss + 0.05
    tv_emp = 0.5 * np.abs(
        hd_distribution_from_dbt(empirical_model) - extracted
    ).sum()
    assert tv_emp < 0.25


def test_from_bit_activities_validation():
    with pytest.raises(ValueError):
        DbtModel.from_bit_activities(np.array([]))


# ----------------------------------------------------------------------
# Regression guard for the hoisted quadrature/CDF implementation: the
# per-call leggauss + np.vectorize(math.erf) construction was replaced by
# a cached rule and a vectorized normal CDF, and must not have moved any
# value.
# ----------------------------------------------------------------------
def _legacy_sign_activity(rho, h):
    """The pre-optimization implementation, verbatim math: a fresh
    200-point Gauss-Legendre rule and an erf-based CDF per call."""
    import math

    rho = float(np.clip(rho, -1.0, 1.0))
    if abs(h) < 1e-12:
        return float(np.arccos(rho) / np.pi)
    if rho >= 1.0 - 1e-12:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(200)
    erf = np.vectorize(math.erf)

    def cdf(z):
        return 0.5 * (1.0 + erf(np.asarray(z) / math.sqrt(2.0)))

    upper = 8.0 + abs(h)
    x = 0.5 * (nodes + 1.0) * upper
    w = 0.5 * upper * weights
    sq = np.sqrt(1.0 - rho * rho)

    def phi(z):
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

    term1 = float((phi(x - h) * cdf(-(h + rho * (x - h)) / sq) * w).sum())
    term2 = float(
        (phi(-x - h) * (1.0 - cdf(-(h + rho * (-x - h)) / sq)) * w).sum()
    )
    return float(np.clip(term1 + term2, 0.0, 1.0))


def test_sign_activity_zero_mean_unchanged_by_hoisting():
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99):
        assert gaussian_sign_activity(rho, 0.0) == pytest.approx(
            np.arccos(rho) / np.pi, abs=1e-15
        )


@pytest.mark.parametrize("rho", [-0.8, -0.2, 0.0, 0.4, 0.9, 0.999])
@pytest.mark.parametrize("h", [0.05, 0.5, 1.7, -1.1, 4.0])
def test_sign_activity_nonzero_mean_unchanged_by_hoisting(rho, h):
    assert gaussian_sign_activity(rho, h) == pytest.approx(
        _legacy_sign_activity(rho, h), abs=1e-12
    )


def test_quadrature_rule_is_cached():
    from repro.stats.dbt import _QUADRATURE_ORDER, _gauss_legendre

    nodes1, weights1 = _gauss_legendre(_QUADRATURE_ORDER)
    nodes2, weights2 = _gauss_legendre(_QUADRATURE_ORDER)
    assert nodes1 is nodes2 and weights1 is weights2
    assert len(nodes1) == _QUADRATURE_ORDER


# ----------------------------------------------------------------------
# The scipy-free normal CDF: accuracy against scipy's ``ndtr`` and the
# sign activity pinned to values computed with ``ndtr``.
# ----------------------------------------------------------------------
def test_normal_cdf_matches_ndtr_including_tails():
    special = pytest.importorskip("scipy.special")
    from repro.stats.dbt import _normal_cdf

    z = np.concatenate((
        np.linspace(-40.0, 40.0, 8001),
        [-38.5, -8.3, -5.0, -1e-3, -1e-300, 0.0, 1e-300, 1e-3, 5.0, 8.3],
    ))
    cdf = _normal_cdf(z)
    assert cdf.shape == z.shape and cdf.dtype == np.float64
    assert np.abs(cdf - special.ndtr(z)).max() <= 1e-15
    assert cdf[0] == 0.0 and cdf[8000] == 1.0


#: ``gaussian_sign_activity`` on a (rho, h) grid, computed with
#: ``scipy.special.ndtr`` as the normal CDF.
_SIGN_ACTIVITY_RHOS = (-0.99, -0.6, -0.2, 0.3, 0.7, 0.95, 0.999)
_SIGN_ACTIVITY_HS = (-3.0, -0.4, 0.02, 0.9, 2.5, 6.0)
_SIGN_ACTIVITY_NDTR = (
    (0.00269979606325944, 0.6891565166336147, 0.953162459102779,
     0.3681202506935136, 0.012419330651551187, 1.973174667979104e-09),
    (0.0026997960621401224, 0.611783001552042, 0.7045781761963706,
     0.3617326283551667, 0.012419329132668796, 1.9731752401281314e-09),
    (0.0026995345623738393, 0.5053036036229644, 0.5639383008770786,
     0.32636072611759115, 0.012408193482125594, 1.9731752900725002e-09),
    (0.002652093031769744, 0.3673492871817515, 0.4029198967588311,
     0.2525010854228039, 0.011894438081810042, 1.9731616781068816e-09),
    (0.002239848716142393, 0.23266962469916888, 0.2531298300102297,
     0.1650976372562225, 0.00944791680356748, 1.9537969007310195e-09),
    (0.0010814693703881833, 0.09324768959607316, 0.10106223801058867,
     0.06718868308384843, 0.004326208644014083, 1.3334521387593592e-09),
    (0.0001580339560389953, 0.013141712796655127, 0.014233589928831836,
     0.009494732485332783, 0.0006251796545604832, 2.1617170668061432e-10),
)


def test_sign_activity_matches_ndtr_values():
    for rho, row in zip(_SIGN_ACTIVITY_RHOS, _SIGN_ACTIVITY_NDTR):
        for h, expected in zip(_SIGN_ACTIVITY_HS, row):
            assert gaussian_sign_activity(rho, h) == pytest.approx(
                expected, rel=0, abs=1e-12
            ), (rho, h)
