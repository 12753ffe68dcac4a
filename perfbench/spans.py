"""In-memory spans around the calls the benchmark makes into `lh` modules.

A span is `[name, mode, start, end, parent, op]`: `name` is `<layer>.<call>`
(the layer is the `lh` module, or `bench` for the benchmark's own operation
spans), `mode` is the cast mode or None, `parent` is the index of the
enclosing span or -1, and `op` is the operation id. Spans stay in memory
until `dump` writes them out after the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def begin(self, name: str, mode=None) -> int:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, mode, perf_counter(), None, parent, self.op])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._open.pop()

    def durations(self, scale: Callable[[float], float]) -> list[float]:
        """Span durations, each scaled at its midpoint."""

        return [(end - start) * scale((start + end) / 2) for _, _, start, end, _, _ in self.spans]

    def totals(self, scale: Callable[[float], float]) -> dict[tuple[str, object], tuple[float, int]]:
        """(name, mode) -> (seconds, calls)."""

        out: dict[tuple[str, object], list] = defaultdict(lambda: [0.0, 0])
        for span, dur in zip(self.spans, self.durations(scale)):
            acc = out[span[0], span[1]]
            acc[0] += dur
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_seconds(self, scale: Callable[[float], float]) -> dict[str, float]:
        """Layer -> span time not covered by child spans."""

        durs = self.durations(scale)
        child = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durs):
            if span[4] >= 0:
                child[span[4]] += dur
        out: dict[str, float] = defaultdict(float)
        for i, (span, dur) in enumerate(zip(self.spans, durs)):
            out[span[0].split(".", 1)[0]] += dur - child[i]
        return dict(out)

    def dump(self, path) -> None:
        rows = [
            {
                "name": name,
                "mode": getattr(mode, "value", mode),
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
            }
            for name, mode, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
