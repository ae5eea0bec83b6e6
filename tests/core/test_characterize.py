"""Characterization driver and stimulus generators."""

import numpy as np
import pytest

from repro.core import (
    characterize_module,
    classify_transitions,
    corner_input_bits,
    mixed_input_bits,
    random_input_bits,
)
from repro.core.characterize import uniform_hd_input_bits
from repro.modules import make_module


def test_random_bits_shape_and_determinism():
    a = random_input_bits(100, 8, seed=1)
    b = random_input_bits(100, 8, seed=1)
    assert a.shape == (100, 8)
    assert np.array_equal(a, b)
    assert a.dtype == bool


def test_uniform_hd_covers_all_classes():
    bits = uniform_hd_input_bits(3000, 16, seed=2)
    hd = (bits[1:] != bits[:-1]).sum(axis=1)
    counts = np.bincount(hd, minlength=17)
    assert (counts[1:] > 0).all()
    # roughly uniform over 1..16
    assert counts[1:].min() > 3000 / 16 * 0.5


def test_uniform_hd_marginal_is_uniform():
    bits = uniform_hd_input_bits(6000, 12, seed=3)
    ones = bits.mean(axis=0)
    assert np.allclose(ones, 0.5, atol=0.05)


def test_corner_bits_pair_structure():
    bits = corner_input_bits(200, 10, seed=4)
    # even rows u, odd rows v with all non-switching bits equal-fill
    for j in range(0, 198, 2):
        u, v = bits[j], bits[j + 1]
        diff = u != v
        assert diff.any()
        stable = ~diff
        if stable.any():
            values = u[stable]
            # fill styles: all-zero, all-one or random; at least check
            # stability
            assert np.array_equal(u[stable], v[stable])


def test_corner_bits_produce_extreme_zero_subclasses():
    bits = corner_input_bits(600, 8, seed=5)
    events = classify_transitions(bits)
    extremes = ((events.stable_zeros == 8 - events.hd) & (events.hd < 8)).sum()
    assert extremes > 50


def test_mixed_bits_compose():
    bits = mixed_input_bits(400, 8, seed=6, corner_fraction=0.25)
    assert bits.shape == (400, 8)


def test_characterize_small_module():
    module = make_module("ripple_adder", 4)
    result = characterize_module(module, n_patterns=1500, seed=0)
    model = result.model
    assert model.width == 8
    assert model.coefficients[0] == 0.0
    # Monotone increasing overall
    assert model.coefficients[-1] > model.coefficients[1]
    assert result.n_patterns >= 1500
    assert result.average_charge > 0


def test_characterize_convergence_flag():
    module = make_module("ripple_adder", 4)
    relaxed = characterize_module(
        module, n_patterns=1500, seed=0, tolerance=0.5
    )
    assert relaxed.converged
    strict = characterize_module(
        module, n_patterns=500, seed=0, tolerance=1e-9, max_patterns=1000
    )
    assert not strict.converged
    assert strict.n_patterns == 1000


def test_characterize_enhanced():
    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=1500, seed=0, enhanced=True
    )
    assert result.enhanced is not None
    assert result.enhanced.n_parameters > 8


def test_characterize_cluster_size():
    module = make_module("ripple_adder", 4)
    fine = characterize_module(
        module, n_patterns=1500, seed=0, enhanced=True, cluster_size=1
    )
    coarse = characterize_module(
        module, n_patterns=1500, seed=0, enhanced=True, cluster_size=4
    )
    assert coarse.enhanced.n_parameters < fine.enhanced.n_parameters


def test_characterize_stimulus_validation():
    module = make_module("ripple_adder", 4)
    with pytest.raises(ValueError, match="unknown stimulus"):
        characterize_module(module, stimulus="fancy")


def test_characterize_deterministic():
    module = make_module("ripple_adder", 4)
    a = characterize_module(module, n_patterns=800, seed=3)
    b = characterize_module(module, n_patterns=800, seed=3)
    assert np.allclose(a.model.coefficients, b.model.coefficients)


def test_characterize_zero_delay_reference():
    module = make_module("csa_multiplier", 4)
    glitchy = characterize_module(module, n_patterns=1200, seed=1)
    clean = characterize_module(
        module, n_patterns=1200, seed=1, glitch_aware=False
    )
    assert glitchy.model.coefficients[4:].sum() > clean.model.coefficients[4:].sum()


def test_random_characterization_misses_low_classes_on_wide_modules():
    """Documents why uniform_hd is the default: plain random never sees
    Hd=1 on a 24-bit-input module."""
    module = make_module("ripple_adder", 12)
    result = characterize_module(
        module, n_patterns=1500, seed=2, stimulus="random",
        max_patterns=1500,
    )
    assert result.model.counts[1] == 0
    result_u = characterize_module(
        module, n_patterns=1500, seed=2, stimulus="uniform_hd",
        max_patterns=1500,
    )
    assert result_u.model.counts[1] > 0


def test_corner_bits_odd_count_has_no_spurious_zero_row():
    """Regression: an odd ``n_patterns`` used to leave the preallocated
    last row all-zeros (never written by the pair loop), injecting a fake
    vector and a fake high-Hd seam transition into the enhanced stream.
    Now the odd stream is a strict prefix of the even one."""
    for n in (5, 7, 199):
        odd = corner_input_bits(n, 10, seed=9)
        even = corner_input_bits(n + 1, 10, seed=9)
        assert odd.shape == (n, 10)
        assert np.array_equal(odd, even[:n])


def test_corner_bits_tiny_counts():
    assert corner_input_bits(1, 6, seed=0).shape == (1, 6)
    assert corner_input_bits(2, 6, seed=0).shape == (2, 6)
    a = corner_input_bits(1, 6, seed=0)
    b = corner_input_bits(2, 6, seed=0)
    assert np.array_equal(a[0], b[0])


def test_mixed_bits_odd_corner_block_keeps_length():
    """The corner block must not shrink for odd splits, or the composed
    stream would silently lose patterns."""
    bits = mixed_input_bits(401, 8, seed=7, corner_fraction=0.5)
    assert bits.shape == (401, 8)
    bits = mixed_input_bits(399, 8, seed=7, corner_fraction=0.37)
    assert bits.shape == (399, 8)


def test_convergence_reason_converged():
    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=1500, seed=0, tolerance=0.5
    )
    assert result.converged
    assert result.convergence_reason == "converged"


def test_convergence_reason_budget_exhausted():
    module = make_module("ripple_adder", 4)
    result = characterize_module(
        module, n_patterns=500, seed=0, tolerance=1e-9, max_patterns=1000
    )
    assert not result.converged
    assert result.convergence_reason == "budget_exhausted"
    assert all(np.isfinite(result.history))


def test_convergence_reason_no_populated_classes():
    """A module too wide for the budget never populates any class to
    ``min_class_count``: the run must say *why* it failed instead of
    silently looping to ``max_patterns`` on an inf-only history."""
    module = make_module("ripple_adder", 16)  # 32 input bits
    with pytest.warns(UserWarning, match="min_class_count"):
        result = characterize_module(
            module,
            n_patterns=100,
            seed=1,
            batch_size=50,
            max_patterns=200,
            min_class_count=20,
        )
    assert not result.converged
    assert result.convergence_reason == "no_populated_classes"
    assert result.history
    assert all(np.isinf(result.history))


# ----------------------------------------------------------------------
# Stimulus laws: the vectorized generators must keep the documented
# class-conditional distribution (exactly h toggles, h uniform on 1..m,
# toggled positions uniform given h, uniform marginal).
# ----------------------------------------------------------------------
def _step_masks(bits):
    return bits[1:] != bits[:-1]


def _corner_masks(bits):
    return bits[0::2] != bits[1::2]


@pytest.mark.parametrize("width", [1, 7, 65])
def test_uniform_hd_every_step_in_range(width):
    hd = _step_masks(uniform_hd_input_bits(3000, width, seed=11)).sum(axis=1)
    assert hd.min() >= 1
    assert hd.max() <= width


@pytest.mark.parametrize("width", [1, 7, 65])
def test_corner_pair_hd_in_range(width):
    hd = _corner_masks(corner_input_bits(3000, width, seed=12)).sum(axis=1)
    assert hd.min() >= 1
    assert hd.max() <= width


@pytest.mark.parametrize(
    "masks_of",
    [
        lambda: _step_masks(uniform_hd_input_bits(24001, 16, seed=13)),
        lambda: _corner_masks(corner_input_bits(48000, 16, seed=14)),
    ],
    ids=["uniform_hd", "corner"],
)
def test_hd_counts_uniform_chi_square(masks_of):
    from scipy.stats import chisquare

    hd = masks_of().sum(axis=1)
    counts = np.bincount(hd, minlength=17)[1:]
    assert chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize(
    "masks_of",
    [
        lambda: _step_masks(uniform_hd_input_bits(64001, 8, seed=15)),
        lambda: _corner_masks(corner_input_bits(128000, 8, seed=16)),
    ],
    ids=["uniform_hd", "corner"],
)
def test_toggled_positions_uniform_given_hd(masks_of):
    from scipy.stats import chisquare

    masks = masks_of()
    hd = masks.sum(axis=1)
    for h in range(1, 8):
        per_position = masks[hd == h].sum(axis=0)
        assert per_position.sum() == h * (hd == h).sum()
        assert chisquare(per_position).pvalue > 1e-3, h


def test_uniform_hd_wide_marginal():
    ones = uniform_hd_input_bits(8000, 65, seed=17).mean(axis=0)
    assert np.allclose(ones, 0.5, atol=0.05)


@pytest.mark.parametrize(
    "generate", [uniform_hd_input_bits, corner_input_bits, mixed_input_bits]
)
def test_stimulus_deterministic_per_seed(generate):
    a = generate(500, 12, seed=21)
    assert np.array_equal(a, generate(500, 12, seed=21))
    assert not np.array_equal(a, generate(500, 12, seed=22))


@pytest.mark.parametrize(
    "generate", [uniform_hd_input_bits, corner_input_bits, mixed_input_bits]
)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_stimulus_tiny_shapes(generate, n):
    bits = generate(n, 5, seed=0)
    assert bits.shape == (n, 5)
    assert bits.dtype == bool


def test_corner_pairs_cycle_all_fill_styles():
    """Pair k fills the bits outside its support with style k % 3:
    all-zero, all-one, random."""
    width = 10
    bits = corner_input_bits(600, width, seed=23)
    u, v = bits[0::2], bits[1::2]
    outside = u == v
    seen_mixed = False
    for k in range(len(u)):
        fill = u[k][outside[k]]
        if not len(fill):
            continue
        if k % 3 == 0:
            assert not fill.any()
        elif k % 3 == 1:
            assert fill.all()
        else:
            seen_mixed |= bool(fill.any() and not fill.all())
    assert seen_mixed


def test_toggle_masks_exact_under_tied_keys():
    """Tied keys would set extra bits; the exact re-rank keeps h."""
    from repro.core.characterize import _toggle_masks

    keys = np.array([[0.5, 0.5, 0.1, 0.9], [0.2, 0.2, 0.2, 0.2]])
    h = np.array([2, 3])
    masks = _toggle_masks(h, keys)
    np.testing.assert_array_equal(masks.sum(axis=1), h)
    np.testing.assert_array_equal(masks[0], [True, False, True, False])
    assert _toggle_masks(np.zeros(0, dtype=int), np.zeros((0, 4))).shape \
        == (0, 4)
