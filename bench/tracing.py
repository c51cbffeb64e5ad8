"""Spans and counts recorded around the benchmark's calls into the program.

A span is one call the benchmark makes into a layer's public function:
its name (``<layer>.<function>``), start and end on ``time.perf_counter``,
the index of the enclosing span (-1 for none), the verdict it belongs to
(None during set-up) and whether it returned normally.  Spans stay in memory
until the run ends.
"""

import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.verdict = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.verdict, ok)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict:
        """name -> [calls, busy seconds, calls that raised]."""
        out: dict = {}
        for name, start, end, _, _, ok in self.spans:
            row = out.setdefault(name, [0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += 0 if ok else 1
        return out


class NullTracer:
    """Calls straight through; used for the untraced, end-to-end runs."""

    verdict = None

    def call(self, name: str, fn, *args):
        return fn(*args)

    def count(self, name: str, n: int = 1) -> None:
        pass
