"""The percentile rule and the patcher."""

import pytest

from common import (
    MIN_BEYOND, REFERENCE_PASS_MS, InsufficientSamples, Patcher, SpeedGauge,
    cells_for, highest_percentile, latency_summary, percentile,
    percentile_or_none)


def test_median_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 21)), 0.5) == 10
    with pytest.raises(InsufficientSamples):
        percentile(list(range(1, 20)), 0.5)


def test_p90_needs_one_hundred_samples():
    samples = list(range(1, 101))
    assert percentile(samples, 0.9) == 90
    assert sum(1 for value in samples if value > 90) == MIN_BEYOND
    with pytest.raises(InsufficientSamples):
        percentile(samples[:99], 0.9)


def test_nearest_rank_ignores_input_order():
    assert percentile([5.0, 1.0, 4.0, 2.0, 3.0] * 10, 0.5) == 3.0


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 1.0)


def test_highest_supported_percentile_is_reported():
    assert highest_percentile(list(range(1, 101))) == (0.9, 90)
    assert highest_percentile(list(range(1, 1001)))[0] == 0.99
    assert highest_percentile(list(range(10))) is None
    assert percentile_or_none(list(range(10)), 0.5) is None
    assert latency_summary(list(range(1, 101))) == {
        "n": 100, "median": 50.5, "p90": 90}


def test_cells_scale_with_run_length():
    assert cells_for(20.0, 2.0) == 10
    assert cells_for(0.5, 2.0) == 1


class _Owner:
    def method(self):
        return "original"


class _Child(_Owner):
    pass


def test_patcher_restores_own_and_inherited_attributes():
    patcher = Patcher()
    patcher.replace(_Owner, "method", lambda original: lambda self: "owner")
    patcher.replace(_Child, "method", lambda original: lambda self: "child")
    assert _Child().method() == "child"
    assert _Owner().method() == "owner"
    patcher.restore()
    assert "method" not in vars(_Child)
    assert _Child().method() == "original"


def test_speed_gauge_scales_by_the_readings_around_the_work():
    gauge = SpeedGauge()
    for _ in range(3):
        gauge.read()
    (first, second, third), passes = gauge._at, gauge._pass_ms
    between = (first + second) / 2
    assert gauge.factor(between) == pytest.approx(
        REFERENCE_PASS_MS / ((passes[0] + passes[1]) / 2))
    assert gauge.factor(first - 1.0) == pytest.approx(
        REFERENCE_PASS_MS / passes[0])
    assert gauge.factor(third + 1.0) == pytest.approx(
        REFERENCE_PASS_MS / passes[2])
    assert gauge.scale([(between, 2.0)]) == [
        pytest.approx(2.0 * gauge.factor(between))]
