"""Host-speed reference: a fixed kernel timed next to every measurement.

The speed of the host this benchmark was built on moves by up to 1.7x
between phases a few seconds long, because other tenants share its cores:
back-to-back sweep passes took 0.85 s in one phase and 1.45 s in the next,
in CPU time as well as wall time.  A fixed kernel of the same kind of work
as the library's hot path (small-array numpy calls from Python) slows down
with it.  Every timed figure is therefore reported as

    seconds * NOMINAL_S / (kernel seconds measured just before and after)

that is, in seconds of a host on which the kernel takes ``NOMINAL_S``.  Over
ten runs per workload the spread (interquartile range over median) of the
median pass time went from 0.17 to 0.04 on sweep and from 0.13 to 0.10 on
verify-n5; it stayed near 0.05 on the others.  The kernel tracks the host
imperfectly (the larger arrays at n=5 slow down less than it does), which
is why verify-n5 gains least.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

#: Kernel time on the development host (2-vCPU Intel Xeon, Python 3.11.7,
#: numpy 2.4.6) in its fast phase.  A unit, not a tuning knob: changing it
#: rescales every timed figure by the same factor.
NOMINAL_S = 0.015

_ITERATIONS = 4000


def kernel_seconds() -> float:
    """Time one fixed run of small-array work: 6x6 products and scalar reads."""
    a = np.arange(36.0).reshape(6, 6) / 36.0
    acc = 0.0
    start = time.perf_counter()
    for _ in range(_ITERATIONS):
        b = np.einsum("ij,jk->ik", a, a)
        acc += float(b[0, 0])
        a = a * 0.999
    return time.perf_counter() - start


class Clock:
    """Wall time of consecutive blocks, each scaled by the kernel's time
    measured on both sides of it (the kernel between two blocks serves both)."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.seconds = 0.0  # nominal-host seconds
        self._last = kernel_seconds()

    @contextlib.contextmanager
    def block(self):
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        kernel = kernel_seconds()
        self.wall += wall
        self.seconds += wall * NOMINAL_S / ((self._last + kernel) / 2.0)
        self._last = kernel

    @property
    def scale(self) -> float:
        """Nominal-host seconds per wall second over the blocks so far."""
        return self.seconds / self.wall
