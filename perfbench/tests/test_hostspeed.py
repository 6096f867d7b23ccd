import pytest

import hostspeed


class FakeKernel:
    def __init__(self, duration):
        self.duration = duration
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.duration


def test_calibrate_warms_once_then_times_at_least_one_call():
    kernel, samples = FakeKernel(0.5), []
    hostspeed.calibrate(kernel, samples, busy_s=0.0)
    assert kernel.calls == 2
    assert samples == [0.5]


def test_calibrate_runs_until_its_share_of_the_busy_time():
    kernel, samples = FakeKernel(0.25), []
    hostspeed.calibrate(kernel, samples, busy_s=10.0)
    # four timed calls reach SHARE (a tenth) of ten busy seconds
    assert len(samples) == 4
    assert kernel.calls == len(samples) + 1


def test_scale_brings_the_kernel_median_to_the_reference():
    ref = hostspeed.REFERENCE_S
    samples = [2 * ref, 2 * ref, 9 * ref]
    assert hostspeed.scale(samples) == pytest.approx(0.5)


def test_kernel_returns_a_positive_duration():
    assert hostspeed.Kernel()() > 0.0
