"""The interference ledger as a plain list of interval objects.

Test oracle for :class:`repro.core.independence.InterferenceLedger`,
which keeps its rows in columns and builds no per-interval object: the
same queries, answered straight from
:class:`~repro.core.independence.InterferenceInterval` objects, with the
sliding-window maximum by brute force.  It also answers the per-victim
queries the simulator never asks (``for_victim``, ``total``) for tests
that read a run's ledger through :meth:`ListLedger.of`.
"""

from repro.core.independence import InterferenceInterval


class ListLedger:
    def __init__(self, intervals=()):
        self.intervals = list(intervals)

    @classmethod
    def of(cls, ledger):
        """The oracle fed from a simulated ledger's rows."""
        return cls(ledger.intervals)

    def record(self, start, end, victim, source, kind):
        self.intervals.append(
            InterferenceInterval(start, end, victim, source, kind))

    def for_victim(self, victim, kinds=None):
        wanted = None if kinds is None else set(kinds)
        return [iv for iv in self.intervals if iv.victim == victim
                and (wanted is None or iv.kind in wanted)]

    def total(self, victim, window_start=0, window_end=None, kinds=None):
        if window_end is None:
            window_end = max((iv.end for iv in self.intervals), default=0)
        return sum(iv.overlap(window_start, window_end)
                   for iv in self.for_victim(victim, kinds))

    def max_window_interference(self, victim, width, kinds=None):
        spans = self.for_victim(victim, kinds)
        starts = ({iv.start for iv in spans}
                  | {max(0, iv.end - width) for iv in spans})
        return max((sum(iv.overlap(s, s + width) for iv in spans)
                    for s in starts), default=0)

    def snapshot_state(self):
        return [(iv.start, iv.end, iv.victim, iv.source, iv.kind.value)
                for iv in self.intervals]
