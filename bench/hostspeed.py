"""Host speed, sampled in the process being timed.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
seconds to minutes, on each core separately: a fixed pure-Python loop took
0.17 s per pass in one minute and 0.27 s a few minutes later, and two cores
timed side by side moved with a correlation of only 0.3. Wall time alone then
measures the host more than the program. So while a timed interval runs,
``Sampler`` interrupts it every ``INTERVAL_S`` with ``SIGALRM`` and times a
fixed pure-Python probe in the same thread. ``rescale`` removes the probes'
own time from the interval and rescales the rest to the speed at which the
probe takes ``PROBE_REF_S``: seconds at a fixed reference host speed.

The probe uses neither numpy nor ``sparsetn``, so no change to the program
can change how long it takes, and span tracing never counts it. A probe that
falls due during a long call into C runs when the call returns.
``PROBE_REF_S`` is a fixed constant; changing it rescales every recorded
figure.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
PROBE_LOOPS = 2000
PROBE_REF_S = 1.5e-4


def probe() -> float:
    """Time one pass of the fixed probe loop, in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return time.perf_counter() - t0


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        inside = sum(self.samples)
        samples = sorted(self.samples or [probe()])  # an interval shorter than one tick has none
        mid = len(samples) // 2
        median = samples[mid] if len(samples) % 2 else (samples[mid - 1] + samples[mid]) / 2
        return {"probe_s": inside, "probe_median_s": median, "probes": len(self.samples)}


def rescale(seconds: float, host: dict) -> float:
    """``seconds`` of an interval sampled by ``Sampler``, at the reference host speed."""
    return (seconds - host["probe_s"]) * PROBE_REF_S / host["probe_median_s"]
