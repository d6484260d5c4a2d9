"""Spans and counters recorded around the package's public functions.

The tracer replaces a function at the names its callers look it up by
(``frakspace.verify.approx_error_matrix``, ``frakspace.maximal.fit_in_span``
and so on) with a wrapper that times the call. Nothing inside the package is
changed. Coarse calls are kept as spans (name, start, end, parent); calls
made tens of thousands of times per pass only add to per-layer totals.
Every call, span or not, charges its duration to the caller's child time,
so each layer's self time excludes the layers it calls.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 1
        # layer -> [inclusive seconds, self seconds, calls]
        self.totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, *, aggregate: bool = False, on_return=None):
        stack, totals, spans = self._stack, self.totals, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = 0
            if not aggregate:
                span_id, self._next_id = self._next_id, self._next_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                total = totals[layer]
                total[0] += duration
                total[1] += duration - frame[2]
                total[2] += 1
                if stack:
                    stack[-1][2] += duration
                if not aggregate:
                    spans.append((span_id, layer, frame[1], end, parent))
            if on_return is not None:
                on_return(args, kwargs, result, duration)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, **kwargs) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, **kwargs))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def inclusive(self, layer: str) -> float:
        return self.totals[layer][0] if layer in self.totals else 0.0

    def self_time(self, layer: str) -> float:
        return self.totals[layer][1] if layer in self.totals else 0.0

    def calls(self, layer: str) -> int:
        return self.totals[layer][2] if layer in self.totals else 0

    def write(self, path) -> None:
        """Spans, per-layer totals and counts as one JSON document."""
        doc = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "layers": {
                k: {"s": v[0], "self_s": v[1], "calls": v[2]}
                for k, v in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
