"""In-memory span tracing around calls into the coevo modules.

A :class:`Tracer` replaces module and class attributes by wrappers that
record one span (name, start, end, parent) per call and count calls and
the work they return. Nothing inside ``src/`` changes: the wrapped names
are the ones the package itself looks up at call time, so the engine's
inner layers are seen from outside. Spans stay in memory until
:meth:`Tracer.write`; :meth:`Tracer.self_seconds` turns them into self
time per span name (duration minus the part covered by child spans).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable

Counting = Callable[[Counter, tuple, object], None]
Keying = Callable[[tuple], object]


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, key or None].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._paused = False

    def wrap(
        self, owner, attr: str, name: str, count: Counting | None = None, key: Keying | None = None
    ) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``count`` adds to :attr:`counts` from the call's arguments and
        result; ``key`` tags the span from its arguments. A missing
        attribute is recorded in :attr:`absent` instead of failing, so a
        refactor that renames an internal layer shows up as an absent layer
        rather than a broken benchmark.
        """
        inner = vars(owner).get(attr)
        if inner is None:
            self.absent.append(name)
            return
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._paused:
                return inner(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, key(args) if key else None])
            stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, inner))

    @contextmanager
    def paused(self):
        """Call the wrapped functions untraced inside, for the benchmark's own checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def uninstall(self) -> None:
        for owner, attr, inner in reversed(self._installed):
            setattr(owner, attr, inner)
        self._installed.clear()

    def self_times(self, upto: int | None = None) -> list[float]:
        """Self time of each span, over all spans or the first ``upto``.

        A prefix of the span list is closed under parents and children,
        because a span is appended when it starts and its children start
        after it and end before it.
        """
        spans = self.spans[:upto]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_seconds(self, upto: int | None = None) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times(upto)):
            totals[span[0]] += own
        return totals

    def breakdown(self, name: str) -> list[tuple[object, float, dict[str, float], Counter]]:
        """Key, duration, and self time and calls per span name, of each ``name`` span.

        The self times and calls cover the ``name`` span and everything
        inside it.
        """
        spans, own = self.spans, self.self_times()
        out = []
        i = 0
        while i < len(spans):
            if spans[i][0] != name:
                i += 1
                continue
            end = spans[i][2]
            inside: dict[str, float] = defaultdict(float)
            calls: Counter = Counter()
            j = i
            while j < len(spans) and spans[j][1] < end:
                inside[spans[j][0]] += own[j]
                calls[spans[j][0]] += 1
                j += 1
            out.append((spans[i][4], end - spans[i][1], inside, calls))
            i = j
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "key"], "spans": self.spans}, fh)


def span_cost_seconds(calls: int = 20_000) -> float:
    """Measured time one traced call adds, for the tracing-overhead estimate."""
    probe = SimpleNamespace(noop=lambda: None)

    def best_of_three() -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(calls):
                probe.noop()
            best = min(best, time.perf_counter() - started)
        return best

    bare = best_of_three()
    Tracer().wrap(probe, "noop", "probe")
    return max(best_of_three() - bare, 0.0) / calls
