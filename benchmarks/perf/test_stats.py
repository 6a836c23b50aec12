"""The percentile rule and the calibration arithmetic."""

import pytest

from . import calibration
from .stats import (
    MIN_BEYOND,
    calm_tail,
    percentile,
    samples_beyond,
    spread,
    summarize,
    supported_tail,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(samples, 0)


def test_tail_needs_ten_samples_beyond_it():
    # p99 of 1,000 samples has exactly 10 beyond it; of 999 only 9.
    assert samples_beyond(1000, 99.0) == MIN_BEYOND
    assert supported_tail(1000) == 99.0
    assert supported_tail(999) == 95.0
    assert supported_tail(100) == 90.0
    assert supported_tail(99) == 75.0
    assert supported_tail(39) is None
    assert supported_tail(10_000) == 99.9


def test_calm_tail_is_the_tail_of_the_least_disturbed_window():
    calm = [float(value % 100) for value in range(400)]
    assert calm_tail(calm, 90) == percentile(calm, 90) == 89.0
    # A stall inflates most of one window: the pooled p90 jumps, the
    # calmest of the four windows does not move.
    stalled = list(calm)
    stalled[100:160] = [500.0] * 60
    assert percentile(stalled, 90) == 500.0
    assert calm_tail(stalled, 90) == 89.0
    # A slower tail everywhere moves it.
    assert calm_tail([value * 2 for value in stalled], 90) == 178.0
    # Too few samples for two windows: the plain percentile; none: 0.
    assert calm_tail(calm[:150], 90) == percentile(calm[:150], 90)
    assert calm_tail([], 90) == 0.0


def test_summary_states_the_sample_count():
    summary = summarize([float(value) for value in range(1, 201)])
    assert summary["count"] == 200
    assert summary["p50"] == 100.5
    assert summary["tail"] == 95.0
    assert summary["tail_value"] == 190.0
    assert summarize([1.0, 2.0, 3.0])["tail"] is None


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    values = [90, 95, 98, 99, 100, 100, 101, 102, 105, 110]
    assert 0.04 < spread(values) < 0.08


def test_normalisation_with_an_injected_slow_calibration():
    # The kernel took twice the reference: the host ran at half speed, so
    # the work would have taken half as long on the reference host.
    assert calibration.normalise(10.0, cal_observed_ms=1.2,
                                 cal_ref_ms=0.6) == pytest.approx(5.0)
    assert calibration.normalise(10.0, cal_observed_ms=0.6,
                                 cal_ref_ms=0.6) == pytest.approx(10.0)
    assert calibration.observed_ms([0.0011, 0.0012, 0.0030]) \
        == pytest.approx(1.2)


def test_disturbed_share_counts_slow_observations():
    observed = [0.60, 0.65, 0.70, 0.90]      # limit is 1.15 * 0.6 = 0.69
    assert calibration.disturbed_share(observed, cal_ref_ms=0.6) == 0.5
    assert calibration.disturbed_share([], cal_ref_ms=0.6) == 0.0


def test_kernel_is_frozen_and_timed_with_the_given_clock():
    kernel = calibration.Kernel()
    # The window is full after warm-up: a slice evicts about what it adds.
    assert kernel.live_pairs() == 65963
    kernel.run()
    assert kernel.live_pairs() == 65999
    ticks = iter([100.0, 100.0012])
    assert kernel.time_slice(clock=lambda: next(ticks)) \
        == pytest.approx(0.0012)
    assert len(kernel.sample(2)) == 2


def test_stopwatch_takes_its_slices_out_and_normalises_by_them(kernel):
    # Start at 0; slices of 2.5 ms at the start, in the middle and at the
    # end (twice CAL_REF_MS: the host runs at half speed); the work between
    # them takes 1 s in all.
    ticks = iter([0.0,
                  0.0, 0.0025,          # the opening slice
                  0.5025, 0.5050,       # a pulse after 0.5 s of work
                  1.0050, 1.0075,       # the closing slice
                  1.0075])
    stopwatch = calibration.Stopwatch(kernel, clock=lambda: next(ticks))
    stopwatch.pulse()
    assert stopwatch.stop() == pytest.approx(0.5)
    assert len(stopwatch.slices) == 3


def test_serve_phases_are_normalised_by_the_slices_taken_during_them():
    from .serve import observed_ms

    slices = [[1.0, 0.002], [2.0, 0.002], [3.0, 0.004], [4.0, 0.004]]
    assert observed_ms(slices, 0.5, 2.5) == pytest.approx(2.0)
    assert observed_ms(slices, 2.5, 4.5) == pytest.approx(4.0)
    # No slice started in between: all of them; none at all: the reference.
    assert observed_ms(slices, 10.0, 11.0) == pytest.approx(3.0)
    assert observed_ms([], 0.0, 1.0) == calibration.SIDECAR_REF_MS
