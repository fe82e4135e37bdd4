"""Spans recorded around calls into morpheusnet, kept in memory.

A span is ``[name, start, end, parent]``: times from ``time.perf_counter``
in seconds, ``parent`` the index of the enclosing span or -1. Spans come only
from wrappers this benchmark installs around public callables: methods on an
instance, functions and classes as module attributes (the program looks
them up through the module at call time), and the backward closures that a
wrapped call returns.
"""

from __future__ import annotations

import json
from time import perf_counter

_MISSING = object()


class Tracer:
    """Installs span-recording wrappers and undoes them on ``restore``.

    Calls are synchronous on one thread, so the spans form a tree in which
    the children of a span never overlap one another.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, backward: str | None = None):
        """``fn`` recording one span per call.

        When the call returns a tuple ending in a callable (an op's
        ``(output, backward)`` pair), the closure is wrapped as ``backward``.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if backward and isinstance(result, tuple) and callable(result[-1]):
                result = (*result[:-1], self.wrap(backward, result[-1]))
            return result

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` (on a module or an instance) until ``restore``."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, backward: str | None = None) -> None:
        """Replace ``owner.attr`` with a traced call until ``restore``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), backward))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def drain(self) -> list[list]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot drain while a span is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return table


def module_shares(spans: list[list], wall_s: float) -> dict[str, float]:
    """Self time per module (the span name up to its first dot) over ``wall_s``.

    The ``other`` entry is the wall time no span covers, so the shares add
    up to 1.
    """
    shares: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        module = span[0].split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + own / wall_s
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def within(spans: list[list], ancestor: str) -> list[bool]:
    """For each span, whether a span named ``ancestor`` encloses it."""
    inside = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
    return inside


def write_spans(path, phases: dict[str, list[list]]) -> None:
    """Write each phase's spans as JSON, one ``[name, start_s, end_s, parent]`` per span."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], **phases}, fh)
