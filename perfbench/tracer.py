"""In-memory span recording around the program's layer boundaries.

The benchmark traces the program from the outside: :meth:`Tracer.patch`
replaces a public function or method with a wrapper that records one span
(name, start, end, parent span, request id) per call and restores the
original on :meth:`Tracer.restore`. Spans stay in memory until the run
ends. Nothing here is active in an untraced run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable

__all__ = ["Tracer", "aggregate", "attributed_seconds", "merge_aggregates"]

#: Outermost wrappers: their own time is not a layer's, so it counts as
#: unattributed.
WRAPPERS = frozenset({"session.op", "fleet.run"})


class Tracer:
    """Records nested spans of wrapped calls in one process.

    A span's parent is the innermost wrapped call still open when it
    starts, so a layer's self time is its duration minus its children's.
    ``request`` tags every span with the operation it belongs to.
    """

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, request id)
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop recorded spans (a forked worker starts from its own)."""
        self.spans = []
        self._stack = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* recording one span per call; *after* sees each result,
        outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.request)
            if after is not None:
                after(value)
            return value

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper named *name*."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, origin: float) -> None:
        """Write the raw spans as JSON, times relative to *origin*."""
        rows = [
            [name, round(start - origin, 9), round(end - start, 9), parent, req]
            for name, start, end, parent, req in filter(None, self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "dur_s", "parent", "request"],
                       "spans": rows}, fh)

    def dump_aggregate(self, path: str) -> None:
        """Atomically write this process's per-name aggregate and its
        attributed seconds as JSON."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"spans": aggregate(self.spans),
                       "attributed_s": attributed_seconds(self.spans)}, fh)
        os.replace(tmp, path)


def aggregate(
    spans: list[tuple[str, float, float, int, int] | None],
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (total duration), ``self_s``.

    Spans still open (``None``) are skipped; their children still count
    toward their own names.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, start, end = span[0], span[1], span[2]
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child_time[i]
    return out


def attributed_seconds(
    spans: list[tuple[str, float, float, int, int] | None],
) -> float:
    """Wall time inside named layer spans, counting nested ones once.

    A span counts when it is not one of :data:`WRAPPERS` and no ancestor is
    a layer span either, so time spent in a wrapper's own code, outside any
    layer it calls, stays unattributed.
    """
    inside = [False] * len(spans)  # span is, or runs within, a layer span
    total = 0.0
    for i, span in enumerate(spans):
        if span is None:
            continue
        parent = span[3]
        enclosed = parent >= 0 and inside[parent]
        layer = span[0] not in WRAPPERS
        inside[i] = enclosed or layer
        if layer and not enclosed:
            total += span[2] - span[1]
    return total


def merge_aggregates(
    parts: list[dict[str, dict[str, float]]],
) -> dict[str, dict[str, float]]:
    """Sum per-name aggregates from several processes."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, agg in part.items():
            acc = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
    return out
