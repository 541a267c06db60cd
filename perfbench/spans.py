"""In-memory spans, boundary wrappers and the self-time fold.

The traced run wraps the public functions at each layer boundary of
the program from the outside (``Tracer.wrap``) and records one span per
call: name, start, end, parent and request id.  Spans stay in memory
and are written out once, when the run ends.  Nothing here imports the
program, so the fold is testable on hand-built span trees.

Times are ``time.perf_counter()`` seconds.  On Linux that clock is
CLOCK_MONOTONIC, shared by every process on the host, so spans written
by the server process merge with the generator's on one time axis.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: (span id, request id) of the innermost open span of this context
_current: contextvars.ContextVar[tuple[int, Any] | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    rid: Any = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.rid, self.attrs]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans around wrapped boundaries; undoes its patches on
    :meth:`uninstall`.

    Span ids carry the process id in their high bits so spans from
    several processes can be merged without clashes.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: per-boundary observations that are not durations (queue waits, lags)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._base = os.getpid() << 32
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str, rid: Any = None) -> tuple:
        """Start a span; returns the handle :meth:`close` takes."""
        parent = _current.get()
        sid = self._base | next(self._ids)
        if rid is None and parent is not None:
            rid = parent[1]
        token = _current.set((sid, rid))
        return (sid, None if parent is None else parent[0], name, rid, token,
                time.perf_counter())

    def close(self, handle: tuple, attrs: dict | None = None, *, reset: bool = True) -> None:
        end = time.perf_counter()
        sid, parent, name, rid, token, start = handle
        if attrs:
            rid = attrs.pop("rid", rid)
        if reset:
            _current.reset(token)
        self.spans.append(Span(sid, parent, name, start, end, rid, attrs or {}))

    @contextlib.contextmanager
    def span(self, name: str, rid: Any = None):
        """Context manager form of :meth:`open`/:meth:`close`; yields the
        span's attribute dict."""
        attrs: dict = {}
        handle = self.open(name, rid)
        try:
            yield attrs
        finally:
            self.close(handle, attrs)

    # ------------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        attrs: Callable[..., None] | None = None,
        pre: Callable[[tuple, dict], Any] | None = None,
        rid: Callable[[tuple, dict], Any] | None = None,
        future: bool = False,
        everywhere: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result, out, state)`` may add attributes to
        the span (an ``out["rid"]`` names its request id); ``state`` is
        what ``pre(args, kwargs)`` returned before the call.
        ``rid(args, kwargs)`` names the request id up front.
        ``future=True`` ends the span when the returned future is done
        rather than when the call returns.  ``everywhere=True`` also
        replaces every ``from module import name`` copy of the function
        in the program's loaded modules.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                state = pre(args, kwargs) if pre else None
                handle = tracer.open(name, rid(args, kwargs) if rid else None)
                out: dict = {}
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    if attrs is not None:
                        attrs(args, kwargs, result, out, state)
                    tracer.close(handle, out)
        elif future:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                handle = tracer.open(name, rid(args, kwargs) if rid else None)
                try:
                    fut = original(*args, **kwargs)
                except BaseException:
                    tracer.close(handle)
                    raise
                _current.reset(handle[4])
                fut.add_done_callback(lambda _f: tracer.close(handle, reset=False))
                return fut
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                state = pre(args, kwargs) if pre else None
                handle = tracer.open(name, rid(args, kwargs) if rid else None)
                out: dict = {}
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    if attrs is not None:
                        attrs(args, kwargs, result, out, state)
                    tracer.close(handle, out)

        targets = [owner]
        if everywhere:
            targets += [
                mod for key, mod in list(sys.modules.items())
                if key.startswith("repro") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ----------------------------------------------------------- persisting

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_json() for s in self.spans],
                       "samples": self.samples}, fh)


def load(path: str) -> tuple[list[Span], dict[str, list[float]]]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span.from_json(row) for row in data["spans"]], data["samples"]


# ------------------------------------------------------------------ folding


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children are clipped to their parent's interval: an asynchronous
    child may outlive the call that started it.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[p.id].append((lo, hi))
    return {s.id: s.duration - covered(children[s.id]) for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class FoldRow:
    name: str
    count: int
    busy_s: float
    self_s: float
    p50_ms: float
    p99_ms: float
    share: float


def fold(spans: list[Span], wall_s: float) -> list[FoldRow]:
    """Per span name: count, busy and self time, p50/p99, share of wall.

    Busy time is the union of the name's spans, so nested or concurrent
    spans of one name are not counted twice; self time is summed span
    by span.
    """
    selfs = self_times(spans)
    groups: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    rows = []
    for name, group in sorted(groups.items()):
        busy = covered((s.start, s.end) for s in group)
        durs = [s.duration * 1e3 for s in group]
        rows.append(FoldRow(
            name=name,
            count=len(group),
            busy_s=busy,
            self_s=sum(selfs[s.id] for s in group),
            p50_ms=percentile(durs, 50),
            p99_ms=percentile(durs, 99),
            share=busy / wall_s if wall_s > 0 else 0.0,
        ))
    return rows

