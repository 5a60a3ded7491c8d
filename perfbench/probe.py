"""A fixed reference computation, timed around and during every operation,
that corrects measured latencies for contention on a shared host.

On a host whose cores are shared with other tenants, the same operation's
wall time drifts by 20-50% over seconds to minutes, and process CPU time
drifts with it, because contention slows the core itself rather than taking
it away.  Two runs minutes apart then differ by more than any optimisation
worth measuring.  The probe below does the same small fixed work every time,
so its slowdown measures the contention of the moment.

A ``Meter`` runs the probe ``EDGE_REPS`` times before and after each timed
operation and, for operations in this process, every ``TICK_S`` during it
from a ``SIGALRM`` handler.  The time the handler takes is taken out of the
operation's latency, and the rest is scaled by ``PROBE_REF_S`` over the mean
probe time: the time the operation would take at the speed at which the
probe takes ``PROBE_REF_S``.  Operations in child processes (the CLI and
set-up) get the edge probes only.

On the benchmark's reference host (2 vCPUs of an Intel Xeon, Python 3.11,
numpy 2.4) an idle core runs the probe in about ``PROBE_REF_S``, so corrected
and measured latencies agree there when nothing else runs.  The probe mixes
an interpreted loop with numpy array arithmetic, like the operations it
corrects; it never calls into eulercert, so no change to the program can
change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 0.00085
EDGE_REPS = 8
TICK_S = 0.05
_LOOP = 7_500
_ARRAY_REPS = 2
_X = np.linspace(0.1, 2.0, 20_000)


def probe_s() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    for _ in range(_ARRAY_REPS):
        np.sin(_X) * np.exp(-_X) + np.sqrt(_X)
    return time.perf_counter() - t0


class Meter:
    """Probe samples around (and with ``ticks``, during) timed operations.

    Use as a context manager when ``ticks`` is set, so the ``SIGALRM``
    handler is installed and removed again::

        with Meter(ticks=True) as meter:
            meter.start()
            t0 = time.perf_counter(); op(); meter.disarm(); seconds = time.perf_counter() - t0
            net, corrected = meter.stop(seconds)

    The edge probes after one operation also serve as the edge probes before
    the next.
    """

    def __init__(self, ticks: bool = False):
        self.ticks = ticks
        self.edge = None
        self.inside: list = []
        self.spent = 0.0
        self._previous_handler = None

    def __enter__(self):
        if self.ticks:
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        if self.ticks:
            self.disarm()
            signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.inside.append(probe_s())
        self.spent += time.perf_counter() - t0

    def _edge(self) -> list:
        return [probe_s() for _ in range(EDGE_REPS)]

    def start(self):
        """Probe (unless the last operation's closing probes serve) and start sampling."""
        if self.edge is None:
            self.edge = self._edge()
        self.inside, self.spent = [], 0.0
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self):
        """Stop sampling; call it inside the timed region, right after the operation."""
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def stop(self, seconds: float) -> tuple:
        """Probe after the operation; return (seconds without the sampler's
        own time, those seconds corrected to the reference speed)."""
        self.disarm()
        before, self.edge = self.edge, self._edge()
        net = seconds - self.spent
        probe_mean = statistics.fmean(before + self.edge + self.inside)
        return net, net * PROBE_REF_S / probe_mean
