"""In-memory spans around calls into pssurf's public functions.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started, and counts taken from the
call's arguments and result after its end.  Spans stay in memory until
the run ends; the benchmark reduces them to per-layer metrics.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``patched`` wraps public functions for one block."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, tag=""):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), float("nan"), parent, tag)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each (owner, attribute, span name, count) by a traced
        wrapper while the block runs.  The owner is a module or a class;
        a missing attribute raises KeyError, so a renamed entry point is
        noticed rather than silently untraced."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    new = self.wrap(name, raw, count)
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def descendants(self, root):
        """Indices of every span below span ``root``."""
        below = {root}
        out = []
        for k in range(root + 1, len(self.spans)):
            if self.spans[k].parent in below:
                below.add(k)
                out.append(k)
        return out

    def self_time(self, k):
        """Duration of span k minus the time its direct children cover
        (children run one after another, so their durations add)."""
        kids = sum(s.duration for s in self.spans if s.parent == k)
        return self.spans[k].duration - kids
