"""How fast the machine runs now, from a fixed stdlib kernel.

On a shared virtual machine the same code runs up to 1.7x slower for
stretches of seconds to minutes.  The benchmark multiplies each time it takes
by the machine speed measured alongside it, so that its figures read as if
the machine ran at speed 1.0.  The kernel never touches the program, so a
faster program still reads faster.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Seconds the calibration kernel takes at machine speed 1.0.
CALIBRATION_S = 0.001
#: Seconds between two samples taken while a child process runs.
SAMPLE_EVERY = 0.05


def _kernel() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for k in range(1, 300):
        acc += Fraction(k % 7 + 1, k % 5 + 2)
        seen[k, k % 3] = acc.numerator % 97
    return acc


def machine_speed(samples: int = 5) -> float:
    """``CALIBRATION_S`` over the median time of the kernel.

    The garbage collector is off while the kernel runs, so the program's heap
    does not slow it.
    """
    times = []
    gc.disable()
    try:
        for _ in range(samples):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return CALIBRATION_S / statistics.median(times)


class Sampler:
    """Samples the machine speed while a child process runs.

    Pass it to ``execute.spawn`` as ``while_running``; it samples at once and
    then every ``SAMPLE_EVERY`` seconds, so the parent stays mostly idle.
    Sampling beside the child measures the machine as the child sees it,
    interpreter start-up included.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self._last = -SAMPLE_EVERY

    def __call__(self) -> None:
        if time.perf_counter() - self._last < SAMPLE_EVERY:
            time.sleep(0.002)
            return
        self.speeds.append(machine_speed(samples=1))
        self._last = time.perf_counter()

    def speed(self) -> float:
        return statistics.median(self.speeds) if self.speeds else machine_speed()
