"""Reference-time arithmetic and the SIGALRM probe."""

import time

import pytest

import speed


def test_reference_time_removes_probe_time_and_scales_by_the_stage_median():
    ref = speed.REF_KERNEL_S
    slow = [2 * ref] * 5  # host at half speed during this stage
    fast = [ref] * 4 + [9 * ref]  # the median ignores the one late tick
    got = speed.reference_times([(10.0, slow), (3.0, fast)])
    assert got == pytest.approx([(10.0 - 10 * ref) / 2 ** speed.ELASTICITY, 3.0 - 13 * ref])


def test_stage_with_few_ticks_takes_the_median_over_all_stages():
    ref = speed.REF_KERNEL_S
    stages = [(1.0, [2 * ref] * 6), (0.5, [ref])]
    assert speed.reference_times(stages)[1] == pytest.approx((0.5 - ref) / 2 ** speed.ELASTICITY)
    assert speed.reference_times([(0.5, [])]) == [0.5]


def test_probe_ticks_while_open_and_restores_the_handler():
    probe = speed.SpeedProbe(tick_s=0.01)
    with probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    seen = len(probe.samples)
    time.sleep(0.05)
    assert seen >= speed.MIN_TICKS
    assert len(probe.samples) == seen
    with speed.SpeedProbe(tick_s=0) as off:
        time.sleep(0.05)
    assert off.samples == []
