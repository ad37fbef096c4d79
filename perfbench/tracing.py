"""Outside-in spans around calls into the program's public functions.

The benchmark swaps a module or class attribute for a wrapper that records a
span (name, parent span, start, end) and calls the original. Spans nest by
call stack, so a layer's self time is its spans' durations minus the time
covered by their child spans: a ``tasks.grad`` call made inside
``learner.round_metrics`` is charged to ``tasks``, and ``round_metrics`` keeps
only the rest. Spans stay in memory and are folded into per-name totals after
each workload call.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

CHECK_SPAN = "bench.check"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
        check: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` in a span.

        ``observe(args)`` runs before the span opens; ``check(result)`` runs
        after it closes, inside a ``bench.check`` span whose time the harness
        removes from the call's wall time.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if check is not None:
                self.wrap(CHECK_SPAN, check)(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, list[float]]:
        """Fold recorded spans into {name: [calls, total_s, self_s]} and clear."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, _, start, end), inner in zip(spans, child):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - inner
        spans.clear()
        return out
