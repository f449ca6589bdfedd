"""Span recorder for the traced pass — benchmark-side only.

Spans are recorded *around the calls into each layer*, by shadowing
methods on the instances the benchmark itself constructs (an instance
attribute hides the class's method for that object alone; nothing in
``src/`` changes and nothing is patched globally):

* every stage's ``forward`` / ``backward`` / ``apply_update`` /
  ``flush_update`` (layer ``pipeline.stage``), id = packet id;
* the schedule's ``inject_size`` / ``end_step`` (``pipeline.schedule``);
* ``DynamicBatcher.submit`` / ``next_batch`` (``serve.batcher``),
  id = request id;
* the inference stream's ``submit`` / ``poll`` (``pipeline.inference``),
  id = packet id;
* ``FleetRouter.submit`` (``serve.fleet.router``), id = fleet id.

Instance wrapping reaches the sim and threaded runs.  Process-backend
workers run in other interpreters; their numbers come from
``RuntimeStats`` and the probes (spans inside workers are the later
``repro.obs`` issue).

Each span is ``(name, layer, t0, t1, parent, id)``; ``parent`` is the
enclosing span on the same thread.  Spans are buffered per thread in
memory and written once, at the end, as chrome-trace JSON
(``chrome://tracing`` / Perfetto) together with every layer's **self
time**: its spans' durations minus the parts their child spans cover.
A span marked ``wait`` (the batcher's blocking ``next_batch``) is kept
out of busy self time and summed separately: it is time the consumer
waited for work, not work.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class _ThreadBuffer:
    __slots__ = ("name", "spans", "stack")

    def __init__(self, name: str):
        self.name = name
        self.spans: list = []
        self.stack: list = []


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self.t_origin = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer(
                threading.current_thread().name
            )
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, obj, attr: str, layer: str, span_id=None, keep=None,
             wait: bool = False) -> None:
        """Shadow ``obj.attr`` with a recording wrapper.

        ``span_id(args, result)`` extracts the packet/request id;
        ``keep(result)`` drops the span when false (empty polls)."""
        fn = getattr(obj, attr)
        name = f"{type(obj).__name__}.{attr}"

        def recorded(*args, **kwargs):
            buf = self._buffer()
            parent = buf.stack[-1] if buf.stack else -1
            index = len(buf.spans)
            buf.spans.append(None)
            buf.stack.append(index)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                buf.stack.pop()
                if keep is None or keep(result):
                    ident = span_id(args, result) if span_id else None
                    buf.spans[index] = (
                        name, layer, t0, t1, parent, ident, wait
                    )

        setattr(obj, attr, recorded)

    # -- what gets wrapped ---------------------------------------------------

    def wrap_engine(self, engine) -> None:
        for stage in engine.stages:
            for attr in ("forward", "backward"):
                self.wrap(stage, attr, "pipeline.stage", lambda a, _r: a[0])
            for attr in ("apply_update", "flush_update"):
                self.wrap(stage, attr, "pipeline.stage")
        for attr in ("inject_size", "end_step"):
            self.wrap(engine.schedule, attr, "pipeline.schedule")

    def wrap_batcher(self, batcher) -> None:
        self.wrap(
            batcher, "submit", "serve.batcher",
            lambda _a, r: None if r is None else r.request_id,
        )
        self.wrap(batcher, "next_batch", "serve.batcher", keep=bool, wait=True)

    def wrap_session(self, session) -> None:
        """Wrap the stream the server will open from this session."""
        open_stream = session.open_stream

        def open_and_wrap():
            stream = open_stream()
            self.wrap(
                stream, "submit", "pipeline.inference", lambda a, _r: a[0]
            )
            self.wrap(
                stream, "poll", "pipeline.inference",
                lambda _a, r: r[0][0] if r else None, keep=bool,
            )
            return stream

        session.open_stream = open_and_wrap

    def wrap_router(self, router) -> None:
        self.wrap(
            router, "submit", "serve.fleet.router",
            lambda _a, r: None if r is None else r.fleet_id,
        )

    # -- reading -------------------------------------------------------------

    def _threads(self) -> list[_ThreadBuffer]:
        with self._lock:
            return list(self._buffers)

    def span_count(self) -> int:
        return sum(
            1 for buf in self._threads() for s in buf.spans if s is not None
        )

    def durations_us(self, name: str) -> list[float]:
        """Durations of every span called ``name``."""
        return [
            (s[3] - s[2]) * 1e6
            for buf in self._threads()
            for s in buf.spans
            if s is not None and s[0] == name
        ]

    def self_times(self) -> dict:
        """``{"busy_ms": {layer: ms}, "wait_ms": {layer: ms},
        "by_name_ms": {span name: ms}, "spans": {layer: count}}``."""
        busy = defaultdict(float)
        waiting = defaultdict(float)
        by_name = defaultdict(float)
        count = defaultdict(int)
        for buf in self._threads():
            covered = defaultdict(float)
            for span in buf.spans:
                if span is not None and span[4] >= 0:
                    covered[span[4]] += span[3] - span[2]
            for index, span in enumerate(buf.spans):
                if span is None:
                    continue
                name, layer, t0, t1, _parent, _ident, wait = span
                own = max(0.0, (t1 - t0) - covered[index]) * 1e3
                (waiting if wait else busy)[layer] += own
                by_name[name] += own
                count[layer] += 1
        return {
            "busy_ms": dict(busy), "wait_ms": dict(waiting),
            "by_name_ms": dict(by_name), "spans": dict(count),
        }

    def write_chrome_trace(self, path: str, metadata: dict) -> int:
        """Write complete ("X") events, one track per recording thread;
        returns the number of spans written."""
        events = []
        for tid, buf in enumerate(self._threads()):
            events.append(
                {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                 "args": {"name": buf.name}}
            )
            for index, span in enumerate(buf.spans):
                if span is None:
                    continue
                name, layer, t0, t1, parent, ident, _wait = span
                events.append(
                    {
                        "name": name, "cat": layer, "ph": "X", "pid": 1,
                        "tid": tid,
                        "ts": (t0 - self.t_origin) * 1e6,
                        "dur": (t1 - t0) * 1e6,
                        "args": {
                            "span": f"{tid}:{index}",
                            "parent": f"{tid}:{parent}" if parent >= 0 else None,
                            "id": ident,
                        },
                    }
                )
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "metadata": metadata},
                fh,
            )
        return sum(1 for e in events if e["ph"] == "X")
