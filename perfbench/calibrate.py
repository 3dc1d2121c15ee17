"""Machine-speed calibration for the end-to-end times.

The benchmark shares its machine with other work.  The speed of one and the
same solve drifts by 10-20 % within a minute, and by up to 100 % when the
host is busy for minutes on end.  Taking each input's fastest repeat absorbs
the short drift; this module handles the long one.  A fixed loop, run
between the solves of a run, measures the machine's speed, and the run's
times are rescaled by the median loop time to the speed at which one loop
takes ``NOMINAL_S`` seconds.  The loop is benchmark code only, so a change to the
program cannot move it.
"""

import statistics
import time

import mpmath
import numpy as np

NOMINAL_S = 0.05  # median loop time on the reference machine (x86-64, 2 vCPU, CPython 3.11)
SHARE = 0.05  # time spent in the loop, as a share of the time spent solving


def loop():
    """Fixed interpreter, mpmath and small-matrix work, like the solver's mix."""
    with mpmath.workprec(120):
        z = mpmath.mpc(0.3, 0.4)
        acc = mpmath.mpc(0)
        for i in range(3000):
            acc += z * z / (z + i)
    a = np.ones((4, 4), dtype=np.complex128)
    for _ in range(1500):
        a = a @ a * 0.25
    return acc, a


class Clock:
    """Loop times sampled across one run, and the rescaling they give."""

    def __init__(self):
        self.samples = []

    def calibrate(self, solved_s=0.0):
        """Run the loop once, and on for SHARE of the ``solved_s`` just spent."""
        end = time.perf_counter() + SHARE * solved_s
        while True:
            t = time.perf_counter()
            loop()
            now = time.perf_counter()
            self.samples.append(now - t)
            if now >= end:
                return

    def nominal(self, seconds):
        """``seconds`` measured in this run, rescaled to nominal machine speed."""
        return seconds * NOMINAL_S / statistics.median(self.samples)
