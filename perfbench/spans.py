"""In-memory spans recorded around calls into the program's layers.

Every span carries a name, start and end (``time.perf_counter`` seconds),
the index of the span that caused it and a run id; spans of one request
share the request's run id.  A disabled :class:`Tracer` records nothing
and costs one attribute test per span, which is how the measured
(untraced) runs use it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; each thread nests its own spans."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            run_id: Optional[str] = None) -> Optional[int]:
        """Record a finished span; returns its index (None when disabled)."""
        if not self.enabled:
            return None
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        with self._lock:
            self.spans.append(Span(name, start, end, parent,
                                   run_id or self.run_id))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str,
             run_id: Optional[str] = None) -> Iterator[Optional[int]]:
        """Time the enclosed block as span ``name``; yields its index."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        index = self.add(name, time.perf_counter(), 0.0, run_id=run_id)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add_pass_records(self, records, parent: Optional[int],
                         start: float, layers: Dict[str, str]) -> None:
        """Lay ``repro.ir`` PassRecords end to end as child spans.

        A PassRecord holds a duration only, so each pass is placed right
        after the previous one, starting at ``start``.  ``layers`` maps a
        pass name to its layer when that is not ``ir``.
        """
        cursor = start
        for record in records:
            layer = layers.get(record.name, "ir")
            self.add(f"{layer}.{record.name}", cursor,
                     cursor + record.seconds, parent=parent)
            cursor += record.seconds

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(index, ()),
                                key=lambda item: item.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[span.name] = totals.get(span.name, 0.0) + \
                span.seconds - covered
        return dict(sorted(totals.items()))

    def as_dict(self) -> Dict[str, object]:
        return {
            "spans": [
                {"name": span.name, "start": span.start, "end": span.end,
                 "parent": span.parent, "run_id": span.run_id}
                for span in self.spans
            ],
            "self_seconds": self.self_seconds(),
        }
