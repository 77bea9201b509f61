"""Machine-speed calibration for a noisy host.

The host's speed drifts by up to 1.8x over seconds to minutes, because
other tenants share its cores.  Each unit of work therefore samples a fixed
reference kernel before it starts, every PERIOD_S while it runs (from a
SIGALRM handler) and after it ends.  Every time is reported at reference
speed: a time is multiplied by the mean of REF_S / t over the kernel times t
sampled within WINDOW_S of it (of the op for an op's latency, of the whole
unit for its wall time), so that a slow spell of the host scales the kernel
and the work alike.  Samples are periodic, so
the mean weights each stretch of the unit by its length, and a sample
stretched by a preemption adds a factor near 0, not a huge time.

The host's slow spells do not slow all code alike, so each workload uses
a kernel with its own instruction mix: a product of two sparse Fraction
polynomials for the exact side, and nested panel quadrature on small
complex arrays for the numeric side.  Neither calls emzv.  The time the
samples take is excluded from every timer through now().
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
WINDOW_S = 0.25

_LEFT = {tuple(sorted((i * 7 % 5, i * 3 % 4, i % 3))): Fraction(i + 1, i % 4 + 1) for i in range(14)}
_RIGHT = {tuple(sorted((i * 5 % 6, i * 2 % 3))): Fraction(-i - 2, i % 3 + 1) for i in range(12)}


def exact_kernel() -> None:
    """One product of two fixed sparse polynomials over Fractions."""
    out: dict = {}
    for ma, ca in _LEFT.items():
        for mb, cb in _RIGHT.items():
            m = tuple(sorted(ma + mb))
            out[m] = out.get(m, 0) + ca * cb


def numeric_kernel() -> None:
    """Nested panel quadrature over small complex arrays, as in
    PanelGrid.integrate_nested."""
    import numpy as np

    values = np.exp(1j * np.linspace(0.0, 1.0, 24 * 16))
    weights, amat = np.full(16, 0.125), np.full((16, 16), 0.0625)
    g = np.ones(24 * 16, dtype=complex)
    for _ in range(20):
        h = (g * values).reshape(24, 16)
        ints = h @ weights
        starts = np.concatenate(([0.0], np.cumsum(ints)[:-1]))
        g = (starts[:, None] + h @ amat.T).ravel()


# The kernels' times at reference speed.
REF_S = {exact_kernel: 0.4e-3, numeric_kernel: 0.5e-3}


class Sampler:
    """Speed samples (taken at, REF_S / kernel time) around and during one
    unit of work."""

    def __init__(self, kernel=exact_kernel):
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def now(self) -> float:
        """perf_counter minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append((end, REF_S[self.kernel] / (end - start)))
        self.spent += end - start

    def __enter__(self) -> "Sampler":
        self.kernel()  # warm-up: a fresh fork's first run pays page faults
        self.sample()
        self.start = time.perf_counter()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.end = time.perf_counter()
        self.sample()


class Speed:
    """Speed samples of one or more units, averaged over time windows."""

    def __init__(self, samples: list[tuple[float, float]]):
        pooled = sorted(samples)
        self.times = [t for t, _ in pooled]
        self.prefix = list(itertools.accumulate((v for _, v in pooled), initial=0.0))

    def factor(self, lo: float, hi: float) -> float | None:
        """Mean speed of the samples taken within WINDOW_S of [lo, hi]."""
        i = bisect.bisect_left(self.times, lo - WINDOW_S)
        j = bisect.bisect_right(self.times, hi + WINDOW_S)
        return (self.prefix[j] - self.prefix[i]) / (j - i) if j > i else None
