"""In-memory span tracer for the traced benchmark run.

The tracer wraps public methods of the engine's objects from outside the
engine: a span records (name, start, end, parent span, transaction id) for
each call, and a counter only counts calls, attributed to the innermost open
span. Spans stay in per-thread column arrays until the run ends; self time is
a span's duration minus the durations of its direct children. Children of a
span run on its thread and nest inside it, so their durations never overlap.
"""

from __future__ import annotations

import gzip
import threading
import time
from array import array
from dataclasses import dataclass, field


MAX_SPAN_NAMES = 127  # span name ids are stored as signed bytes
OUTSIDE = -1  # `top` outside any span; indexes the last slot of a count list


class _ThreadSpans:
    __slots__ = ("thread", "names", "parents", "txns", "starts", "ends", "stack", "top", "txn", "counts")

    def __init__(self, thread: str, counters: int):
        self.thread = thread
        self.names = array("b")
        self.parents = array("q")
        self.txns = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []  # indices of the open spans, innermost last
        self.top = OUTSIDE  # name id of the innermost open span
        self.txn = -1
        # per counter: calls by name id of the innermost open span, OUTSIDE last
        self.counts = [[0] * (MAX_SPAN_NAMES + 1) for _ in range(counters)]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))


class Tracer:
    """Patches methods with span or counter wrappers; `restore` undoes every patch.

    Patching again under a known name adds to that name's spans or counts.
    Every counter must be declared before the first span is recorded.
    """

    def __init__(self):
        self.span_names: list[str] = []
        self.counter_names: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans(threading.current_thread().name, len(self.counter_names))
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
            return spans

    def set_txn(self, txn_id: int) -> None:
        """Tag the calling thread's following spans with a transaction id."""
        self._spans().txn = txn_id

    def span(self, owner, attr: str, name: str) -> None:
        if name not in self.span_names:
            if len(self.span_names) == MAX_SPAN_NAMES:
                raise ValueError("too many span names")
            self.span_names.append(name)
        nid = self.span_names.index(name)
        fn = getattr(owner, attr)
        local = self._local
        current = self._spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                t = local.spans
            except AttributeError:
                t = current()
            stack = t.stack
            i = len(t.names)
            t.names.append(nid)
            t.parents.append(stack[-1] if stack else -1)
            t.txns.append(t.txn)
            t.starts.append(0.0)
            t.ends.append(0.0)
            stack.append(i)
            outer = t.top
            t.top = nid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                t.top = outer
                stack.pop()
                t.starts[i] = start
                t.ends[i] = end

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        if name not in self.counter_names:
            self.counter_names.append(name)
        cid = self.counter_names.index(name)
        fn = getattr(owner, attr)
        local = self._local
        current = self._spans

        # Counted methods run millions of times per run: keep this wrapper minimal.
        def counted(*args):
            try:
                t = local.spans
            except AttributeError:
                t = current()
            t.counts[cid][t.top] += 1
            return fn(*args)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, had, previous in reversed(self._patches):
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total self time and inclusive durations per span name."""
        out = {name: SpanStats() for name in self.span_names}
        for t in self._threads:
            durations = [e - s for s, e in zip(t.starts, t.ends)]
            self_s = list(durations)
            for i, p in enumerate(t.parents):
                if p >= 0:
                    self_s[p] -= durations[i]
            for i, nid in enumerate(t.names):
                st = out[self.span_names[nid]]
                st.calls += 1
                st.self_s += self_s[i]
                st.durations.append(durations[i])
        return out

    def counts(self, name: str, within: str | None = None) -> int:
        """Calls of a counted method, optionally only those made inside spans `within`."""
        cid = self.counter_names.index(name)
        if within is None:
            return sum(sum(t.counts[cid]) for t in self._threads)
        nid = self.span_names.index(within)
        return sum(t.counts[cid][nid] for t in self._threads)

    def span_count(self) -> int:
        return sum(len(t.names) for t in self._threads)

    def write(self, path, header: str) -> None:
        """Write every span as gzip CSV, times in microseconds from the first span."""
        origin = min((t.starts[0] for t in self._threads if t.starts), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header}\n")
            f.write("thread,span,name,start_us,end_us,parent,txn\n")
            for t in self._threads:
                names = self.span_names
                f.writelines(
                    f"{t.thread},{i},{names[n]},{(s - origin) * 1e6:.3f},"
                    f"{(e - origin) * 1e6:.3f},{p},{x}\n"
                    for i, (n, s, e, p, x) in enumerate(
                        zip(t.names, t.starts, t.ends, t.parents, t.txns)
                    )
                )
