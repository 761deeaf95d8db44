"""In-memory spans around calls into the ``src/repro`` layers.

The traced run replaces a layer's public entry points *in the modules
that import them* with wrappers that record a span per call; nothing
under ``src/`` is edited.  A span is ``(name, start, end, parent,
request_id)`` in ``perf_counter_ns`` units; the parent is the innermost
span open on the calling thread when the call began.  A layer's self
time is its spans' durations minus the time their direct children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator, Optional, Sequence

#: Name of the per-operation root span; its self time is unattributed.
ROOT = "op"

#: ``on_call(args, kwargs, result)`` — counts taken where the work happens.
OnCall = Callable[[tuple, dict, Any], None]


@dataclasses.dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    request_id: Optional[int]

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanRecorder:
    """Collects spans for one traced run (single-threaded callers)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request_id: Optional[int] = None

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.request_id))
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index].end = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        if request_id is not None:
            self.request_id = request_id
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable, on_call: Optional[OnCall] = None) -> Callable:
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request_id"],
                    "spans": [dataclasses.astuple(span) for span in self.spans],
                },
                handle,
            )


def self_times(spans: Sequence[Span]) -> dict[str, int]:
    """Summed self time per span name: duration minus direct children."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    totals: dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        totals[span.name] += span.duration - covered[index]
    return dict(totals)


def call_counts(spans: Sequence[Span]) -> Counter:
    return Counter(span.name for span in spans)


@dataclasses.dataclass
class Attribution:
    """How a traced phase's wall time splits across layers."""

    wall_ns: int
    layer_ns: dict[str, int]

    @property
    def attributed_ns(self) -> int:
        return sum(self.layer_ns.values())

    @property
    def unattributed_ns(self) -> int:
        return self.wall_ns - self.attributed_ns

    @property
    def unattributed_pct(self) -> float:
        return 100.0 * self.unattributed_ns / self.wall_ns if self.wall_ns else 0.0


def attribute(spans: Sequence[Span], wall_ns: int) -> Attribution:
    """Layer self times over a phase; the root spans' self time and
    anything outside spans is the unattributed remainder."""
    times = self_times(spans)
    times.pop(ROOT, None)
    return Attribution(wall_ns=wall_ns, layer_ns=times)


#: ``(owner, attribute)`` — a module global or a class attribute to replace.
Target = tuple[Any, str]


@contextlib.contextmanager
def patched(
    recorder: SpanRecorder,
    entries: Sequence[tuple[str, Sequence[Target], Optional[OnCall]]],
) -> Iterator[None]:
    """Replace every target with a span-recording wrapper, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, targets, on_call in entries:
            for owner, attr in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original, on_call))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
