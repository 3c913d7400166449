"""In-memory spans around the benchmark's calls into ``randkp``.

A span is recorded only where benchmark code calls a public ``randkp``
function; nothing inside the package is instrumented.  Spans nest through a
stack, so a span opened while another is open records it as its parent, and
a layer's self time is its duration minus the time its child spans cover.
With tracing off, :meth:`Tracer.call` is a plain call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.unit: Optional[str] = None  # work-unit id stamped on new spans

    @contextmanager
    def span(self, name: str, **work: float):
        """Time the enclosed block as span ``name``; ``work`` holds its work counts."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "work": work,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, work: Optional[Dict[str, float]] = None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, **(work or {})):
            return fn(*args, **kwargs)

    def self_times(self) -> List[float]:
        """Per-span duration minus the time covered by its direct children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and summed work counts."""
        agg: Dict[str, Dict[str, float]] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            a = agg.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += s["end"] - s["start"]
            a["self_s"] += self_s
            for key, val in s["work"].items():
                a[key] = a.get(key, 0) + val
        return agg

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            json.dump([dict(s, self_s=t) for s, t in zip(self.spans, selfs)], fh)
