"""Timings in units of a fixed reference loop run next to them.

On a small share of a busy host the CPU itself changes speed: the same
pure-Python loop takes 1.5 to 1.7 times as long, in user CPU time as well
as wall time. Slow spells last from under a second to minutes, so neither
longer runs nor medians remove them. They slow the reference loop and the
measured command alike, so the ratio of the two stays put while each alone
moves.

``RefClock.probe`` times one call of ``reference_work`` (one "ref"); the
benchmark probes between its operations. ``RefClock.refs`` turns an
operation's wall time into refs: it divides by the mean probe taken within
``WINDOW_S`` of the operation, which follows the long spells and averages
over the short ones. The reference work never changes, so a program that
does its work in less time needs fewer refs.
"""

import bisect
import json
from time import perf_counter

PROBE_EVERY_S = 0.2  # probe() does nothing if the last probe is more recent
WINDOW_S = 2.0
# A ref's length when the host runs at full speed, as measured on a 2-vCPU
# cloud VM with Python 3.11; it turns refs into seconds where a metric must
# be stated in seconds. It is a fixed constant, so it moves no comparison.
SECONDS_PER_REF = 0.0125

# The reference work looks like the program's: decode JSON lines, build
# strings, count into a dict.
_LINES = [json.dumps({"ts": 1_700_000_000_000_000 + i, "src": f"10.0.{i % 7}.{i % 251}",
                      "dst": "10.0.0.1", "proto": "dnp3", "fn": "read"})
          for i in range(6000)]


def reference_work() -> int:
    counts: dict = {}
    for line in _LINES:
        rec = json.loads(line)
        key = f"{rec['src']}->{rec['dst']}:{rec['fn']}"
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class RefClock:
    def __init__(self):
        self.starts: list = []  # probe start times, ascending
        self.durations: list = []  # seconds, one per probe
        reference_work()  # warm up

    def probe(self) -> None:
        if self.starts and perf_counter() - self.starts[-1] < PROBE_EVERY_S:
            return
        start = perf_counter()
        reference_work()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def refs(self, spans) -> float:
        """The summed length in refs of operations given as (start, wall s).

        Call it once the last probe after the operations has been taken.
        """
        total = 0.0
        for start, wall in spans:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, start + wall + WINDOW_S)
            total += wall * (hi - lo) / sum(self.durations[lo:hi])
        return total
