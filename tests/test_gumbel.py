import numpy as np
import pytest

from sparsetok.errors import DegenerateDistributionError
from sparsetok.gumbel import (gumbel_from_uniform, gumbel_max_sample,
                              sample_standard_gumbel)
from sparsetok.rng import SeededRng

EULER_GAMMA = 0.5772156649015329


def test_inverse_transform_closed_forms():
    assert abs(gumbel_from_uniform(np.array([0.5]))[0] - 0.36651292058166435) < 1e-12
    assert abs(gumbel_from_uniform(np.array([1.0 / np.e]))[0]) < 1e-14


def test_uniforms_retained_and_clamped():
    draw = sample_standard_gumbel(SeededRng(3), 1000)
    assert draw.shape == (1000,)
    u = np.clip(SeededRng(3).uniforms(1000), 1e-12, 1.0 - 1e-12)
    assert np.array_equal(draw, -np.log(-np.log(u)))
    extremes = gumbel_from_uniform(np.array([0.0, 1.0]))
    assert np.all(np.isfinite(extremes))


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_standard_gumbel(SeededRng(1), 0)


def test_monte_carlo_mean_matches_euler_gamma():
    draw = sample_standard_gumbel(SeededRng(17), 1_000_000)
    assert abs(draw.mean() - EULER_GAMMA) < 0.01


def test_gumbel_max_degenerate_vector_always_selects_support():
    rng = SeededRng(5)
    assert all(gumbel_max_sample([1.0, 0.0, 0.0], rng) == 0 for _ in range(200))


def test_gumbel_max_never_selects_zero_probability():
    rng = SeededRng(6)
    picks = {gumbel_max_sample([0.5, 0.0, 0.5], rng) for _ in range(2000)}
    assert 1 not in picks


def test_gumbel_max_uniform_frequencies():
    rng = SeededRng(7)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[gumbel_max_sample([0.25] * 4, rng)] += 1
    assert np.abs(counts / n - 0.25).max() < 0.01


def test_gumbel_max_categorical_frequencies():
    rng = SeededRng(8)
    p = np.array([0.2, 0.3, 0.5])
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[gumbel_max_sample(p, rng)] += 1
    assert np.abs(counts / n - p).max() < 0.01


def test_gumbel_max_input_validation():
    rng = SeededRng(9)
    with pytest.raises(DegenerateDistributionError):
        gumbel_max_sample([0.0, 0.0], rng)
    with pytest.raises(ValueError):
        gumbel_max_sample([0.5, 0.6], rng)
    with pytest.raises(ValueError):
        gumbel_max_sample([-0.1, 1.1], rng)
