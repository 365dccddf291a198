"""The benchmark's percentile and self-time arithmetic."""

import pytest

from stats import (SLOT_TAIL_MIN_BEYOND, SPEED_NEAREST, TAIL_MIN_BEYOND,
                   Rescaler, covered_ns, fastest_by_slot, layer_self_times,
                   median, self_times, tail)

K = TAIL_MIN_BEYOND


def test_tail_uses_nominal_percentile_when_the_sample_supports_it():
    n = 200 * K
    values = list(range(1, n + 1))
    value, pct, count = tail(values, 0.99)
    assert (value, pct, count) == (0.99 * n, 0.99, n)
    assert sum(v > value for v in values) == n // 100 >= K


def test_tail_keeps_the_minimum_number_of_samples_beyond_it():
    n = 50 * K                      # p99 would leave only n/100 < K
    values = list(range(1, n + 1))
    value, pct, count = tail(values, 0.99)
    assert value == n - K and pct == pytest.approx(1 - K / n)
    assert sum(v > value for v in values) == K


def test_tail_exactly_at_the_boundary():
    n = 100 * K                     # p99 leaves exactly K
    values = list(range(1, n + 1))
    value, pct, _ = tail(values, 0.99)
    assert value == n - K and pct == pytest.approx(0.99)


def test_tail_never_drops_below_the_median():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * (K // 5)  # K < 2K samples
    value, pct, n = tail(values, 0.90)
    assert value == median(values) == 3.0
    assert pct == pytest.approx(0.5, abs=1 / n) and n == K


def test_tail_is_order_independent_and_rejects_empty():
    assert tail([3, 1, 2] * 10 * K, 0.9) == tail([1, 2, 3] * 10 * K, 0.9)
    with pytest.raises(ValueError):
        tail([], 0.99)


def test_tail_over_slots_uses_its_own_minimum():
    values = list(range(1, 121))    # 120 slots
    value, pct, _ = tail(values, 0.99, SLOT_TAIL_MIN_BEYOND)
    assert value == 120 - SLOT_TAIL_MIN_BEYOND
    assert pct == pytest.approx(1 - SLOT_TAIL_MIN_BEYOND / 120)


def test_fastest_by_slot_keeps_each_slots_fastest_repeat():
    samples = [("q1", 9.0, 12.0), ("q2", 4.0, 5.0), ("q1", 6.0, 9.5),
               ("q2", 5.0, 5.5), ("a7", 3.0, 3.0)]
    assert fastest_by_slot(samples) == {
        "q1": (6.0, 9.5), "q2": (4.0, 5.0), "a7": (3.0, 3.0)}


def test_median_is_nearest_rank():
    assert median([4, 1, 3, 2]) == 2
    assert median([7]) == 7


def test_covered_merges_overlaps_and_clips():
    assert covered_ns([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert covered_ns([(0, 10), (5, 15)], 8, 12) == 4
    assert covered_ns([(50, 60)], 0, 10) == 0


def test_self_time_of_nested_spans():
    # root [0,100] > a [10,40] > b [20,30]; root > c [50,70]
    spans = [(1, None, 0, 100), (2, 1, 10, 40), (3, 2, 20, 30),
             (4, 1, 50, 70)]
    assert self_times(spans) == {1: 50, 2: 20, 3: 10, 4: 20}
    assert sum(self_times(spans).values()) == 100


def test_self_time_with_children_on_other_threads():
    # A serve request span whose engine child runs on an executor
    # thread while a second child (another thread) overlaps it: the
    # overlap is subtracted once, and child time past the parent's end
    # is not subtracted at all.
    spans = [(1, None, 0, 100), (2, 1, 10, 60), (3, 1, 40, 80),
             (4, 1, 90, 130)]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (80 - 10) - (100 - 90)
    assert selfs[2] == 50 and selfs[3] == 40 and selfs[4] == 40


def test_layer_self_times_sum_per_name():
    spans = [(1, None, "serve.request", 0, 100),
             (2, 1, "storage.read_pages", 10, 20),
             (3, 1, "storage.read_pages", 30, 45),
             (4, 3, "storage.decode", 35, 40)]
    assert layer_self_times(spans) == {
        "serve.request": 75, "storage.read_pages": 20,
        "storage.decode": 5}


def test_rescale_cancels_a_slow_stretch():
    # Kernel at 1 ms for the first second, then 1.5 ms (a slower host).
    samples = [(t * 10**8, 10**6) for t in range(10)]
    samples += [(t * 10**8, 15 * 10**5) for t in range(10, 20)]
    rescale = Rescaler(samples, reference_ms=0.5)
    assert rescale(3 * 10**8, 8.0) == 4.0          # calm: 8 ms -> 4 ms
    assert rescale(15 * 10**8, 12.0) == 4.0        # 1.5x slower: same
    assert rescale.kernel_ms(-5) == 1.0            # before the first run
    assert rescale.kernel_ms(10**12) == 1.5        # after the last run


def test_rescale_uses_the_median_of_the_nearest_runs():
    samples = [(t, 100) for t in range(0, 100, 10)]
    samples[5] = (50, 10**6)                       # one preempted run
    assert Rescaler(samples, 1.0).kernel_ms(50) == 100 / 1e6
    with pytest.raises(ValueError):
        Rescaler(samples[:SPEED_NEAREST - 1], 1.0)
