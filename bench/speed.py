"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core host this benchmark was defined on, the same work takes
either about 1x or about 1.5x as long, switching every few seconds. Raw run
medians then spread by 20-30% between runs, far beyond any useful bound. The
benchmark therefore runs a fixed calibration kernel next to every timed piece of
work and reports times at reference speed. The kernel mixes pure-Python
arithmetic, 10x10 matrix products and 100x100 matrix-vector products over 3 MB,
because the slow state slows interpreter-bound and cache-bound work by
different amounts and the workloads mix both:

    normalised seconds = raw seconds * REF_S / kernel seconds measured alongside

REF_S is a constant, the kernel's typical time on that host, so normalised
times read as seconds there. Raw seconds are printed beside them.
"""

from __future__ import annotations

import functools
import time

import numpy as np

REF_S = 0.0025


@functools.cache
def _operands():
    small = np.eye(10) + 0.01 * np.arange(100.0).reshape(10, 10)
    return small, np.full((40, 100, 100), 0.01), np.ones((100, 1))


def kernel_time() -> float:
    """Seconds one run of the calibration kernel takes now."""
    small, stack, column = _operands()
    start = time.perf_counter()
    x = 0.0
    for i in range(7000):
        x += (i % 7) * 0.5
    m = small
    for _ in range(300):
        m = (small @ m) * 0.1
    for _ in range(3):
        x += float((stack @ column).sum())
    if not x + float(m[0, 0]) > 0.0:  # consume the result
        raise RuntimeError("calibration kernel gave a non-positive result")
    return time.perf_counter() - start
