"""In-memory spans around calls into the program's layers.

A span is [name, start_ns, end_ns, parent_index, units]; ``units`` is the
amount of work the call handled (lines, records), or 0. Spans stay in a
list until the run ends and are written out with the result.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter_ns

NAME, START, END, PARENT, UNITS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            record[START] = perf_counter_ns()
            yield record
        finally:
            record[END] = perf_counter_ns()
            self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int, units: int = 0) -> None:
        """Add a finished leaf span under the innermost open span."""
        self.spans.append([name, start_ns, end_ns, self._stack[-1] if self._stack else -1,
                           units])

    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


class LayerStats:
    """Per-name aggregates of span self times, in nanoseconds.

    With ``parents``, only spans whose parent index is in that set count.
    """

    def __init__(self, tracer: Tracer, parents: set | None = None):
        self.times: dict = {}
        self.units: dict = {}
        for span, ns in zip(tracer.spans, tracer.self_times()):
            if parents is None or span[PARENT] in parents:
                self.times.setdefault(span[NAME], []).append(ns)
                self.units[span[NAME]] = self.units.get(span[NAME], 0) + span[UNITS]

    def us_per_unit(self, name: str) -> float:
        return sum(self.times[name]) / 1e3 / self.units[name]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.times[name]) / 1e6

    def quantile_us(self, name: str, q: int) -> float:
        """The q-th percentile, 1 <= q <= 99."""
        return statistics.quantiles(self.times[name], n=100)[q - 1] / 1e3
