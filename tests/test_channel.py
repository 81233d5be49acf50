"""Fading quantizer tests against independent numerical integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from aoi_rl.channel import FadingQuantizer, LinkParams, build_quantizer, sample_level
from aoi_rl.errors import InvalidConfigError


def _oracle_representatives(mean_gain: float, num_levels: int) -> np.ndarray:
    """Conditional means of an exp(1) variable over equal-probability bins,
    computed by quadrature instead of the closed form under test."""
    L = num_levels
    edges = [-math.log(1.0 - j / L) for j in range(L)] + [math.inf]
    reps = []
    for a, b in zip(edges[:-1], edges[1:]):
        mass, _ = integrate.quad(lambda x: x * math.exp(-x), a, min(b, 60.0))
        reps.append(mean_gain * L * mass)
    return np.array(reps)


def test_two_level_representatives_closed_form():
    q = build_quantizer(1.0, 2)
    # E[X | X < ln 2] = 1 - ln2 - ... worked by hand: 2*(1 - (ln2+1)/2)
    low = 2.0 * (1.0 - (math.log(2.0) + 1.0) / 2.0)
    high = 2.0 * ((math.log(2.0) + 1.0) / 2.0)
    assert q.representative_gains == pytest.approx([low, high], rel=1e-12)
    assert q.representative_gains == pytest.approx([0.30685, 1.69315], abs=1e-5)


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 6, 10, 17])
def test_representatives_match_quadrature(levels):
    q = build_quantizer(0.7, levels)
    assert q.representative_gains == pytest.approx(
        _oracle_representatives(0.7, levels), rel=1e-8
    )


@pytest.mark.parametrize("levels", [1, 2, 5, 10, 32])
def test_mean_gain_preserved(levels):
    q = build_quantizer(3.2e-4, levels)
    # the levels are equally likely, so the mean gain is the plain mean
    assert float(q.representative_gains.mean()) == pytest.approx(3.2e-4, rel=1e-12)


def test_representatives_strictly_ascending():
    q = build_quantizer(1.0, 12)
    assert np.all(np.diff(q.representative_gains) > 0)


def test_single_level_is_the_mean():
    q = build_quantizer(2.5, 1)
    assert q.representative_gains == pytest.approx([2.5])


@given(
    levels=st.integers(min_value=1, max_value=40),
    mean=st.floats(min_value=1e-9, max_value=1e3),
)
@settings(max_examples=60, deadline=None)
def test_quantizer_properties(levels, mean):
    q = build_quantizer(mean, levels)
    assert len(q.representative_gains) == levels
    assert np.all(q.representative_gains > 0)
    assert np.all(np.diff(q.representative_gains) >= 0)
    assert float(q.representative_gains.mean()) == pytest.approx(mean, rel=1e-9)


def test_invalid_quantizer_inputs():
    with pytest.raises(InvalidConfigError):
        build_quantizer(0.0, 4)
    with pytest.raises(InvalidConfigError):
        build_quantizer(-1.0, 4)
    with pytest.raises(InvalidConfigError):
        build_quantizer(1.0, 0)


def test_link_params_mean_gain():
    link = LinkParams(
        distance_m=25.0,
        path_loss_exponent=2.0,
        reference_gain=0.2,
        levels_downlink=4,
        levels_uplink=4,
    )
    assert link.mean_gain == pytest.approx(0.2 / 625.0)


def test_link_params_validation():
    with pytest.raises(InvalidConfigError):
        LinkParams(0.0, 2.0, 0.2, 4, 4)
    with pytest.raises(InvalidConfigError):
        LinkParams(25.0, -1.0, 0.2, 4, 4)
    with pytest.raises(InvalidConfigError):
        LinkParams(25.0, 2.0, 0.2, 0, 4)


def test_sample_level_uniform_chi_square():
    q = build_quantizer(1.0, 6)
    rng = np.random.default_rng(7)
    draws = np.array([sample_level(q, rng) for _ in range(1_000_000)])
    assert draws.min() >= 1 and draws.max() <= 6
    counts = np.bincount(draws, minlength=7)[1:]
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_quantizer_is_frozen():
    q = build_quantizer(1.0, 2)
    assert isinstance(q, FadingQuantizer)
    with pytest.raises(AttributeError):
        q.num_levels = 3
