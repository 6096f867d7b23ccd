"""Host-speed calibration for the gated timing metrics.

The benchmark runs on a few cores of a shared host. How hard other tenants
drive it changes its speed by 10-40 % for seconds to minutes at a time and
up to twofold over an hour, which moves every timing of a run together: on
a two-core host, the median monitor step over ten 30 s stretches of one
process read 1.29 to 1.73 ms.
A fixed NumPy kernel, shaped like the member forward passes of one twin step
and calling nothing of gaslift_twin, is timed between the operations.
Scaling an operation time by REFERENCE_S / (the kernel's median time over the
same run) cancels most of that swing: the quartiles of the ten scaled
medians lay 3 % of their median apart, against 18 % unscaled.
"""

from __future__ import annotations

import time

import numpy as np

from stats import median

# the kernel time the scaled metrics are expressed against: on a host where
# one kernel call takes REFERENCE_S, scaled and measured times agree
# (two-core x86 host: 1.0 to 2.6 ms over one afternoon)
REFERENCE_S = 0.002
# kernel time after each operation call, as a share of that call's time
SHARE = 0.1

_CHANNELS = 6
_MEMBERS = 16
_SIZES = (9, 30, 30, 1)
_PASSES = 4


class Kernel:
    """Four passes of six 16-member 9-30-30-1 tanh/relu forward passes, each
    with an interval quantile over the members, on fixed random weights."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1, _SIZES[0]))
        self.weights = [
            [rng.standard_normal((_MEMBERS, a, b)) / np.sqrt(a)
             for a, b in zip(_SIZES[:-1], _SIZES[1:])]
            for _ in range(_CHANNELS)
        ]

    def __call__(self) -> float:
        """Run the kernel once and return its duration in seconds."""
        t0 = time.perf_counter()
        for _ in range(_PASSES):
            for w1, w2, w3 in self.weights:
                h = np.tanh(self.x @ w1)
                h = np.maximum(h @ w2, 0.0)
                np.quantile((h @ w3).ravel(), [0.025, 0.975])
        return time.perf_counter() - t0


def calibrate(kernel, samples: list[float], busy_s: float) -> None:
    """Run ``kernel`` once untimed, to bring its weights back into cache,
    then at least once more and until the timed calls add up to SHARE of
    ``busy_s``, appending each timed call's duration to ``samples``."""
    kernel()
    spent = 0.0
    while True:
        d = kernel()
        samples.append(d)
        spent += d
        if spent >= SHARE * busy_s:
            return


def scale(samples: list[float]) -> float:
    """Factor that brings this run's times to the reference host speed."""
    return REFERENCE_S / median(samples)
