"""Timings normalized to the machine's current speed.

The benchmark shares its CPUs with other tenants, whose load slows
everything in bursts that can outlast a whole run.  A fixed calibration
kernel runs before and after every timed event; dividing the event's time by
the mean of those two kernel times cancels the slowdown both saw.  The result
is scaled back to seconds at the reference speed, the speed at which the
kernel takes REFERENCE_S.  A change to the program moves the event times but
not the kernel, so normalized times compare across commits.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.010
_ITERATIONS = 3000
_X = np.linspace(-1.0, 1.0, 20)


def kernel() -> float:
    """Seconds the machine takes now for fixed work shaped like the package's
    inner loops: small numpy operations driven from Python."""
    start = time.perf_counter()
    w = _X.copy()
    acc = 0.0
    for _ in range(_ITERATIONS):
        z = float(np.dot(w, _X))
        acc += math.log1p(math.exp(-abs(z)))
        w = w - 1e-3 * z * _X
        acc += float(np.linalg.norm(w))
    return time.perf_counter() - start


class Timeline:
    """Timed events of a run, each between two kernel runs."""

    def __init__(self) -> None:
        self.kernel_s = [kernel()]
        self.events: list[tuple[str, float]] = []

    def record(self, kind: str, seconds: float) -> None:
        self.events.append((kind, seconds))
        self.kernel_s.append(kernel())

    def raw(self, kind: str) -> list[float]:
        return [seconds for k, seconds in self.events if k == kind]

    def normalized(self, kind: str) -> list[float]:
        """Event times of one kind at the reference speed."""
        return [
            seconds * 2.0 * REFERENCE_S / (self.kernel_s[i] + self.kernel_s[i + 1])
            for i, (k, seconds) in enumerate(self.events)
            if k == kind
        ]

    def speed(self) -> float:
        """Median machine speed over the run, as a share of the reference speed."""
        return REFERENCE_S / statistics.median(self.kernel_s)
