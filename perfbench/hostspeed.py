"""How fast the shared host runs right now, from a fixed reference loop.

A shared host runs other tenants' work on the same cores, so its speed
can drift by tens of percent over seconds to minutes (README.md, "Host
normalisation").  Every time the benchmark reports is divided by the
host's *slowness* while that time was measured: the CPU time of a
fixed pure-Python loop over REF_NOMINAL_S, its CPU time on the nominal
host.  Any nominal constant works, since it cancels when two runs are
compared.  The loop is benchmark code, so a change to the program moves
the normalised figures and leaves the loop alone.
"""

from __future__ import annotations

import statistics
import threading
import time

REF_ITERATIONS = 10_000
REF_NOMINAL_S = 0.001
#: How often the orchestrator's monitor samples while a run works.
REF_PERIOD_S = 0.1


def reference_loop() -> float:
    """CPU seconds this thread spends on one pass of the reference loop."""
    started = time.thread_time()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.thread_time() - started


class SpeedMonitor:
    """Samples the reference loop every REF_PERIOD_S on a thread of the
    otherwise idle orchestrator while a run process works (about 1 % of
    one core).  ``slowness`` is the median sample over REF_NOMINAL_S:
    above 1 the host runs slower than nominal."""

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-monitor", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(REF_PERIOD_S):
            self.samples.append(reference_loop())

    def __enter__(self) -> "SpeedMonitor":
        self.samples.append(reference_loop())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(reference_loop())

    @property
    def slowness(self) -> float:
        return statistics.median(self.samples) / REF_NOMINAL_S
