"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed changes by up to 2x within
seconds, as other tenants come and go.  While ops run, a sampler thread
times a fixed probe kernel (pure-Python float arithmetic, no confspace
code) every PERIOD seconds.  The interpreter lock makes each probe run in a
gap of the op, on the same interpreter, so probes keep sampling during ops
that last seconds.  The kernel makes no call that releases the lock, so a
probe times the host, not a wait for the lock.  The run pins the process
to one vCPU, so the sampler measures the CPU the ops run on.

Each op's time is then scaled by REFERENCE_S / (median probe time from
HALO before the op to HALO after it), so times read as on the uncontended
reference host.  Raw times are reported alongside.

The kernel allocates no object the garbage collector tracks, so it never
triggers a collection of the program's objects.
"""

from __future__ import annotations

import math
import threading
import time
from array import array

import numpy as np

PERIOD = 0.02  # seconds between probes
HALO = 0.05  # seconds of probes on each side of an op
# Median probe time on the uncontended reference host (2 vCPU Xeon); only
# sets the scale of normalised times.
REFERENCE_S = 4.4e-5

def _kernel() -> float:
    acc = 0.0
    for i in range(200):
        k = float(i % 7)
        a, b, c = 0.3 * k - 1.0, -1.2 * k - 0.1, 0.5 * k + 0.4
        acc += math.sqrt(a * a + b * b + c * c) * 0.5 + (a if i % 3 == 0 else b)
    return acc


def probe() -> tuple[float, float]:
    """(start, seconds) of one warm run of the probe kernel."""
    _kernel()  # refills the caches the op has just evicted
    t0 = time.perf_counter()
    _kernel()
    return t0, time.perf_counter() - t0


class Sampler:
    """Background thread recording (start, duration) of a probe every PERIOD."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("host-speed sampler did not stop")

    def _loop(self):
        while not self._stop.wait(PERIOD):
            start, seconds = probe()
            self.times.append(seconds)
            self.starts.append(start)


def factors(op_start, op_end, starts, times) -> np.ndarray:
    """Per-op scale REFERENCE_S / median probe time within HALO of the op.

    The median, not the mean, so that one probe slowed by something other
    than the host does not move a short op.  An op with no probe in reach
    takes the nearest probe; with no probes at all every factor is 1.
    """
    op_start = np.asarray(op_start, dtype=float)
    op_end = np.asarray(op_end, dtype=float)
    if not len(times):
        return np.ones(len(op_start))
    starts = np.asarray(starts, dtype=float)
    times = np.asarray(times, dtype=float)
    lo = np.searchsorted(starts, op_start - HALO, side="left")
    hi = np.searchsorted(starts, op_end + HALO, side="right")
    nearest = np.clip(np.searchsorted(starts, (op_start + op_end) / 2), 0, len(starts) - 1)
    out = np.empty(len(op_start))
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        if b <= a:
            a, b = int(nearest[i]), int(nearest[i]) + 1
        out[i] = np.median(times[a:b])
    return REFERENCE_S / out
