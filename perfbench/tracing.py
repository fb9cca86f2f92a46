"""In-memory spans around the benchmark's calls into iterbern.

A span records (name, start, end, parent, job). Spans are kept in a list and
written out once, when the run ends. Layer figures are derived from them:
a layer's busy time is the time covered by its outermost spans, its self
time is each span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def write(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "job"])
            writer.writerows(self.spans)

    def _child_time(self) -> dict[int, float]:
        """Per span index: the time its direct children cover."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def by_name(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time, number of spans)."""
        child_time = self._child_time()
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child_time[i]
            out[name][1] += 1
        return {name: (t, c) for name, (t, c) in out.items()}

    def layers(self) -> dict[str, tuple[float, float]]:
        """Per layer (span-name prefix): (busy time, self time)."""
        layer_of = [s[0].split(".", 1)[0] for s in self.spans]
        child_time = self._child_time()
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer = layer_of[i]
            if parent < 0 or layer_of[parent] != layer:
                out[layer][0] += end - start
            out[layer][1] += end - start - child_time[i]
        return {layer: (busy, self_t) for layer, (busy, self_t) in out.items()}
