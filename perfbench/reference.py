"""Reference loops that measure the host's own speed during a run.

On a shared host the speed of interpreted Python code can change by a factor
of about two within seconds, while vectorised numpy code such as
`np.convolve` changes far less.  The runner times one short, fixed loop of
each kind before every operation and once after the last.  A rate reported
per reference ("1/ref") is work done in the time one reference loop takes at
that moment, so it follows the speed of the code under test and not the
speed of the host.  Neither loop touches hfrac, so no change to the library
moves them.

* `python_loop`: a small-array recurrence driven from Python, the mix of
  interpreter work and tiny numpy calls that the solver, the certifier and
  the margin suites spend their time in.
* `convolve_loop`: one `np.convolve` of two fixed 6000-point series, the
  kernel the long-horizon operators spend their time in.
"""

from __future__ import annotations

import gc
import time

import numpy as np

_RNG = np.random.default_rng(20200614)
_SERIES = _RNG.uniform(-1.0, 1.0, (2, 6000))
_STATE = np.array([0.25, -0.5, 0.75, 1.0])
_MATRIX = np.array([[0.5, 0.1, 0.0, 0.0], [0.0, 0.5, 0.1, 0.0],
                    [0.0, 0.0, 0.5, 0.1], [0.1, 0.0, 0.0, 0.5]])


def python_loop() -> float:
    """Seconds taken by 400 steps of a 4-dimensional linear recurrence.

    The garbage collector is off while it runs, as in `timeit`, so that a
    collection of the workload's objects does not land in the reference.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = _STATE.copy()
        acc = 0.0
        for k in range(400):
            x = _MATRIX @ x + 1e-3 * k
            acc += float(np.max(np.abs(x))) + (k % 7) * 0.5
        t1 = time.perf_counter()
    finally:
        gc.enable()
    if not np.isfinite(acc):
        raise RuntimeError("reference loop diverged")
    return t1 - t0


def convolve_loop() -> float:
    """Seconds taken by one convolution of two fixed 6000-point series."""
    t0 = time.perf_counter()
    np.convolve(_SERIES[0], _SERIES[1])
    return time.perf_counter() - t0


def local(refs: list[float], index: int) -> float:
    """Median of the six references nearest to operation `index`.

    `refs[i]` was taken just before operation i, and the last one after the
    last operation, so operation i lies between refs[i] and refs[i + 1].
    """
    return float(np.median(refs[max(0, index - 2): index + 4]))
