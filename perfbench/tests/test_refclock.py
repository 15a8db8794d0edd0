import pytest

from perfbench import refclock
from perfbench.refclock import NOMINAL_S, RefClock


def _clock(samples):
    clock = RefClock()
    for start, took in samples:
        clock.starts.append(start)
        clock.ends.append(start + took)
    return clock


def test_scaled_divides_each_gap_by_the_speed_of_the_samples_around_it(monkeypatch):
    monkeypatch.setattr(refclock, "SMOOTH", 1)
    clock = _clock([(0.0, NOMINAL_S), (1.0, 2 * NOMINAL_S), (2.0, 4 * NOMINAL_S)])
    first_end, second_end = NOMINAL_S, 1.0 + 2 * NOMINAL_S
    assert clock.scaled(0.5, 0.7) == pytest.approx(0.2 / 1.5)
    # the kernel's own time is left out, and each gap has its own speed
    assert clock.scaled(0.5, 1.5) == pytest.approx(0.5 / 1.5 + (1.5 - second_end) / 3.0)
    assert clock.scaled(0.0, 2.0) == pytest.approx((1.0 - first_end) / 1.5 + (2.0 - second_end) / 3.0)
    # before the first and after the last sample, the edge speeds apply
    assert clock.scaled(-1.0, 0.0) == pytest.approx(1.0)
    assert clock.scaled(3.0, 5.0) == pytest.approx(2.0 / 4.0)


def test_slowdowns_are_smoothed_by_the_median_of_neighbours():
    clock = _clock([(float(i), NOMINAL_S * f) for i, f in enumerate([1, 1, 9, 1, 1, 2, 2, 2])])
    assert clock.slowdowns()[2] == pytest.approx(1.0)
    assert clock.slowdowns()[-1] == pytest.approx(2.0)


def test_sampling_runs_the_kernel():
    clock = RefClock()
    assert clock.due(0.0)
    end = clock.sample()
    assert clock.ends == [end] and clock.starts[0] < end
    assert not clock.due(end)
    assert clock.median_kernel_s() > 0
