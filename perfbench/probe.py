"""A fixed unit of machine work, timed between measured operations.

Neighbours on a shared machine slow the measured work in two ways.  They
take the cores, inside this machine or on the host that runs it; the
benchmark therefore times its gated figures in CPU time
(:func:`time.process_time`), which does not count time spent off the
cores.  And they slow the cores down (a busy sibling hyperthread, the
shared caches and memory): the same work runs 20-30% slower from one
minute to the next.  :class:`SpeedProbe` runs a constant mix of small
GEMMs, element-wise numpy and interpreted Python (the mix the
repository's hot paths have) in 2-3 ms of CPU time, which tracks the speed
of a core while the program has it.  Dividing a measured time by the probe
time taken next to it, and multiplying by :data:`REFERENCE_MS`, expresses
the measurement in milliseconds of a machine on which the probe takes
exactly :data:`REFERENCE_MS`.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time that normalised figures are expressed against.
REFERENCE_MS = 2.5

#: Probes per rolling window when normalising a sequence of timings.
WINDOW = 5

#: Probes per block run before and after each set-up, which cannot be
#: interleaved with probes.
BLOCK = 30


class SpeedProbe:
    """The probe's inputs are fixed, so every commit runs the same work."""

    def __init__(self):
        rng = np.random.default_rng(2019)
        self._x = rng.standard_normal((128, 256))
        self._w = rng.standard_normal((256, 256)) / 16.0
        self._src = rng.standard_normal(1 << 19)      # 4 MiB
        self._dst = np.empty_like(self._src)

    def measure(self) -> float:
        """Run the probe once; return its CPU time in milliseconds."""
        start = time.process_time()
        x = self._x
        for _ in range(3):
            x = np.tanh(x @ self._w)
        np.copyto(self._dst, self._src)
        total = 0
        for i in range(4000):
            total += i & 7
        elapsed = time.process_time() - start
        if not np.isfinite(x).all() or total != 14000:
            raise RuntimeError("speed probe computed a wrong result")
        return elapsed * 1e3


def block_ms(probe: SpeedProbe, count: int = BLOCK) -> float:
    """Median probe time over ``count`` back-to-back runs."""
    return float(np.median([probe.measure() for _ in range(count)]))


def rolling_median(values, window: int = WINDOW) -> np.ndarray:
    """Centred running median (the window shrinks at the ends)."""
    values = np.asarray(values, dtype=np.float64)
    half = window // 2
    return np.array([np.median(values[max(0, i - half):i + half + 1])
                     for i in range(values.size)])


def normalise(times_ms, probe_ms) -> np.ndarray:
    """Scale each time by the machine speed its neighbouring probes saw."""
    return (np.asarray(times_ms, dtype=np.float64) * REFERENCE_MS
            / rolling_median(probe_ms))


def scale(before_ms: float, after_ms: float) -> float:
    """Factor for a phase bracketed by two probe blocks."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2.0)
