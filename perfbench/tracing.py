"""In-memory span recorder, attached to the program from outside.

The traced run wraps public methods of the bound instances (a module's
``forward``, a trainer's optimizer, the pattern schedule, the engine's
``infer_requests``) in :meth:`Tracer.wrap`, so nothing inside ``src/``
knows it is being traced.  Spans live in memory until
:meth:`Tracer.write_chrome` dumps them as Chrome trace-event JSON, which
opens in https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span, or None
    group: int | None   # step or request id shared by related spans
    thread: int

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Collects :class:`Span` records; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin_ns = time.perf_counter_ns()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_names(self) -> set:
        names = getattr(self._local, "names", None)
        if names is None:
            names = self._local.names = set()
        return names

    @contextmanager
    def span(self, name: str, group: int | None = None):
        """Record the enclosed block as one span.

        ``group`` defaults to the enclosing span's group, so every span
        opened inside a step shares the step's id.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = self.spans[parent].group
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                                   group, threading.get_ident()))
        stack.append(index)
        try:
            yield index
        finally:
            self.spans[index].end_ns = time.perf_counter_ns()
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int,
            group: int | None = None, parent: int | None = None,
            thread: int | None = None) -> int:
        """Record a span whose bounds were measured elsewhere.

        ``thread`` picks the track it is drawn on (default: the caller's).
        """
        with self._lock:
            self.spans.append(Span(name, start_ns, end_ns, parent, group,
                                   threading.get_ident() if thread is None
                                   else thread))
            return len(self.spans) - 1

    # ------------------------------------------------------------------
    # attaching to the program
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is an instance (the wrapper becomes an instance attribute
        shadowing the bound method) or a class (the class attribute is
        replaced).  A call nested inside an open span of the same name is
        not recorded again.  ``on_result(result)`` sees each return value.
        :meth:`detach` puts everything back.
        """
        original = getattr(owner, attr)
        is_class = isinstance(owner, type)
        tracer = self

        def traced(*args, **kwargs):
            names = tracer._open_names()
            if name in names:
                return original(*args, **kwargs)
            names.add(name)
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            finally:
                names.discard(name)
            if on_result is not None:
                on_result(result)
            return result

        had_instance_attr = not is_class and attr in vars(owner)
        setattr(owner, attr, traced)

        def restore():
            if is_class or had_instance_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def detach(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def child_ms(self) -> dict[int, float]:
        """Per span index, the summed duration of its direct children."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                totals[span.parent] = totals.get(span.parent, 0.0) + span.ms
        return totals

    def per_group_ms(self, names, groups) -> list[float]:
        """Per group, the summed time of spans called any of ``names``.

        Spans nested inside another counted span are skipped, so a name set
        covering a parent and its child counts the time once.
        """
        names = set(names) if not isinstance(names, str) else {names}
        wanted = set(groups)
        totals = {group: 0.0 for group in groups}
        for span in self.spans:
            if span.name not in names or span.group not in wanted:
                continue
            ancestor = span.parent
            nested = False
            while ancestor is not None:
                if self.spans[ancestor].name in names:
                    nested = True
                    break
                ancestor = self.spans[ancestor].parent
            if not nested:
                totals[span.group] += span.ms
        return [totals[group] for group in groups]

    def chrome_events(self) -> list[dict]:
        """Complete (``"ph": "X"``) trace events, times in microseconds."""
        threads: dict[int, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start_ns - self.origin_ns) / 1e3,
                "dur": max(span.end_ns - span.start_ns, 0) / 1e3,
                "args": {"span": index, "parent": span.parent,
                         "id": span.group},
            })
        return events

    def write_chrome(self, path, metadata: dict | None = None) -> None:
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms",
                   "otherData": metadata or {}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def maybe_span(tracer: Tracer | None, name: str, group=None):
    """``tracer.span(name, group)``, or a no-op context without a tracer."""
    return nullcontext() if tracer is None else tracer.span(name, group)


def timed_phase(phases: dict, tracer: Tracer | None, name: str, build):
    """Run ``build()``; store its CPU seconds in ``phases[name]`` and,
    traced, record it as a ``setup.<name>`` span.  Returns what ``build``
    returned."""
    start = time.process_time()
    with maybe_span(tracer, f"setup.{name}"):
        value = build()
    phases[name] = time.process_time() - start
    return value
