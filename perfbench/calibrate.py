"""A fixed calibration loop, timed between repetitions.

On a shared host the CPU speed of this process can drift by up to about
1.9x for tens of seconds at a time, and a whole run may fall in a slow
spell.  The calibration loop slows down with the same spells: a Python
loop, small complex determinants and complex elementwise arithmetic, the
three kinds of work projcurve does.  Every time the benchmark reports is
scaled by REFERENCE_S over the calibration time around it, so it reads as
the time on a machine where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# Calibration time of the loop in a fast spell of a 2-vCPU Xeon sandbox.
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_MATS = (_rng.standard_normal((1500, 4, 4))
         + 1j * _rng.standard_normal((1500, 4, 4)))
_VEC = _rng.standard_normal(8192) + 1j * _rng.standard_normal(8192)


def calibrate() -> float:
    """Seconds taken by one pass of the calibration loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    np.linalg.det(_MATS)
    v = _VEC
    for _ in range(40):
        v = v * _VEC + 0.5
    return time.perf_counter() - t0
