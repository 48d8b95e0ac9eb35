"""A fixed reference kernel that measures the machine's speed between
operations, so timings can be put at a common machine speed.

On a shared host the same single-threaded operation runs up to 1.7 times
slower for tens of seconds at a time, and CPU time moves with wall time:
the core itself is slower, not waiting.  The kernel below does the same
kinds of work as a drc fit (medium numpy arrays gathered, scanned and
scattered; many small numpy calls; plain interpreter loops) on inputs that
never change and with no drc code, so its time follows the machine and not
the program.  ``run.py`` times every set-up and operation with a
``Stopwatch``, which runs the kernel before and after it, and at checkpoints
the operation may call inside it.  Each piece of wall time between two
passes is scaled by ``REFERENCE_S`` over the mean of their times.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's time on the machine the benchmark was tuned on (2 vCPU
# Intel Xeon, Python 3.11, numpy 2.4) in its faster spells, where it read
# 110-145 ms; scaled timings read as seconds on that machine at that speed
REFERENCE_S = 0.12

_RNG = np.random.default_rng(20170406)
_VOLUME = _RNG.random(32 ** 3)
_CELLS = _RNG.integers(0, 32 ** 3, size=(1000, 99))
_SMALL = np.arange(64.0)


def _medium_arrays(rounds: int) -> None:
    for _ in range(rounds):
        x = _VOLUME[_CELLS]
        e = np.exp(-np.cumsum(x, axis=1))
        hit = e > 0.5
        w = np.where(hit, e * x, 0.0)
        np.bincount(_CELLS.ravel(), weights=w.ravel(), minlength=_VOLUME.size)
        np.argmax(~hit, axis=1)


def _small_arrays(rounds: int) -> None:
    for _ in range(rounds):
        c = np.cumsum(_SMALL * 1.5)
        c[c > 10.0].sum()


def _interpreter(rounds: int) -> None:
    s = 0
    for i in range(rounds):
        s += i * i % 7


def reference_s() -> float:
    """Wall time of one pass of the kernel, about ``REFERENCE_S`` seconds."""
    t0 = time.perf_counter()
    _medium_arrays(30)
    _small_arrays(6000)
    _interpreter(500_000)
    return time.perf_counter() - t0


class Stopwatch:
    """Wall time of a stretch of work, split into pieces at checkpoints.

    A pass of the reference kernel runs when the watch is made and at every
    checkpoint, outside the measured time, so each piece lies between two
    passes.  ``stop`` returns the wall time and the effective reference time
    ``ref_s``: the wall time scaled piece by piece equals
    ``wall_s * REFERENCE_S / ref_s``.
    """

    def __init__(self, kernel=reference_s):
        self.kernel = kernel
        self.refs = [kernel()]
        self.start()

    def start(self) -> None:
        self._wall = 0.0
        self._per_ref = 0.0  # sum of piece / its bracketing reference time
        self._t0 = time.perf_counter()

    def checkpoint(self) -> None:
        piece = time.perf_counter() - self._t0
        self.refs.append(self.kernel())
        self._wall += piece
        self._per_ref += piece / ((self.refs[-2] + self.refs[-1]) / 2.0)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall_s, ref_s) since ``start``; ends with a checkpoint."""
        self.checkpoint()
        return self._wall, self._wall / self._per_ref
