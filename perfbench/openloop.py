"""Open-loop load for ``mlp-serve``: fixed-interval arrivals, timed from due.

Request ``i`` is due at ``start + i / rate`` whatever happened to earlier
requests.  The calling thread submits each request at its due time and
one collector thread waits on the responses in arrival order, stamping
the moment the client sees each one complete; the client therefore runs
two threads.  A request's latency runs from its due time, so a stall in
the server or in the generator also counts against the requests queued
behind it; each request also records when it was actually submitted.

Responses complete in arrival order (the server coalesces FIFO
prefixes), so waiting on them in that order adds no head-of-line delay.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

#: how long the collector waits for one response before declaring a hang
RESULT_TIMEOUT_S = 60.0


@dataclass
class Request:
    index: int
    frame: int
    due: float
    submitted: float = 0.0
    seen: float = 0.0
    response: Optional[object] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Due time to the moment the client saw the request complete."""
        return self.seen - self.due


def open_loop(submit: Callable[[int], object],
              digest: Callable[[Request, object], object], frames: int,
              rate: float, seconds: float, tracer) -> List[Request]:
    """Offer ``rate * seconds`` requests, cycling through ``frames`` inputs.

    ``submit(frame)`` returns a pending handle with ``result(timeout)``;
    a refusal raised by ``submit`` is recorded as that request's error.
    The collector keeps ``digest(request, response)`` instead of the
    response, so the client holds few objects for Python's garbage
    collector to scan.
    """
    requests: List[Request] = []
    handles: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect() -> None:
        while True:
            item = handles.get()
            if item is None:
                return
            request, pending = item
            with tracer.span("serve.result", run_id=f"req-{request.index}"):
                try:
                    response = pending.result(RESULT_TIMEOUT_S)
                except Exception as exc:  # typed serve errors, hangs
                    request.error = f"{type(exc).__name__}: {exc}"
                    response = None
            request.seen = time.perf_counter()
            if response is not None:
                request.response = digest(request, response)

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        total = max(1, int(round(rate * seconds)))
        start = time.perf_counter()
        for index in range(total):
            request = Request(index, index % frames, start + index / rate)
            requests.append(request)
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request.submitted = time.perf_counter()
            with tracer.span("serve.submit", run_id=f"req-{index}"):
                try:
                    pending = submit(request.frame)
                except Exception as exc:  # QueueFullError, closed server
                    request.error = f"{type(exc).__name__}: {exc}"
                    request.seen = time.perf_counter()
                    continue
            handles.put((request, pending))
    finally:
        handles.put(None)
        collector.join()
    return requests
