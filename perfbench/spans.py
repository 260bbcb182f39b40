"""In-memory span recorder for the benchmark's traced run.

The recorder replaces public rfsquash functions, at the module attribute the
layer above looks them up through, with wrappers that record one span per
call: name, start, end and parent. Spans stay in memory until the run ends.
Nothing inside ``src/`` is changed; the originals are put back on exit.

Spans nest through a stack, which is only correct while every call runs on
one thread. The benchmark pins ``RFSQ_THREADS=1``, so it is.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; use as a context manager to undo patches."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Callable[[tuple, Any], dict[str, Any]] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``describe(args, result)`` may add deterministic facts about the call
        (sizes, counts, optimizer outcome) to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.info = describe(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def root_of(self, index: int) -> int:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index

    def to_json(self) -> list[dict[str, Any]]:
        base = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "start_s": s.start - base,
                "end_s": s.end - base,
                **({"info": s.info} if s.info else {}),
            }
            for i, s in enumerate(self.spans)
        ]
