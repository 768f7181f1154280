"""Host-speed sampling: a command's time in reference seconds.

The reference host is a shared 2-vCPU VM. When other tenants load the
machine, one vCPU at a time runs up to about 2x slower, for seconds
and sometimes for tens of seconds. CPU time slows with it, so neither
wall time nor CPU time repeats from run to run. A command therefore
samples the speed of the CPU it runs on. Every ``INTERVAL_S`` of wall
time, a SIGALRM handler times ``probe()``, a fixed pure-Python loop, in
the command's own main thread. The ratio ``REFERENCE_PROBE_S / probe
CPU time`` is the command's speed at that moment, as a share of the
reference speed. A window of wall time, multiplied by the mean speed of
the samples taken inside it, is its length in reference seconds: how
long it would have taken at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

#: The probe's time at the reference speed: about its fastest time on
#: an otherwise idle vCPU of the reference host.
REFERENCE_PROBE_S = 60e-6
#: Wall time between two samples. A probe takes about 0.5% of it.
INTERVAL_S = 0.02

_TABLE = dict.fromkeys(range(64), 0)


def _step(index: int, acc: int) -> int:
    acc = (acc * 31 + index) % 1_000_003
    _TABLE[index & 63] = acc
    return acc


def probe() -> int:
    """The fixed loop: calls, integer arithmetic and dict stores, the
    mix of the simulator's inner loop. It makes no object the garbage
    collector tracks, so it never triggers a collection of the
    command's heap."""
    acc = 1
    for index in range(400):
        acc = _step(index, acc)
    return acc


class SpeedSampler:
    """Times ``probe()`` every ``INTERVAL_S`` while started.

    Sample times are ``time.perf_counter()`` readings, so windows must
    use that clock too.
    """

    def __init__(self):
        self.times = array("d")
        self.probes = array("d")

    def sample(self, *_signal_args) -> None:
        # The probe is timed in thread CPU time, so a probe preempted by
        # the command's own pool workers does not read as a slow host.
        self.times.append(time.perf_counter())
        started = time.thread_time()
        probe()
        self.probes.append(time.thread_time() - started)

    def start(self) -> None:
        """Take one sample now, so there is always one, then sample on
        every SIGALRM of a wall-clock interval timer."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, windows: "list[tuple[float, float]]",
              inside: bool = True) -> float:
        """Mean speed of the samples taken inside ``windows`` (or, with
        ``inside=False``, outside all of them); of every sample when
        none is."""
        def within(moment: float) -> bool:
            return any(start <= moment < end for start, end in windows)

        ratios = [REFERENCE_PROBE_S / seconds
                  for moment, seconds in zip(self.times, self.probes)
                  if within(moment) == inside]
        if not ratios:
            ratios = [REFERENCE_PROBE_S / seconds for seconds in self.probes]
        return statistics.fmean(ratios)

    def reference_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.speed([(start, end)])
