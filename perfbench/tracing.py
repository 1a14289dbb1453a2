"""Host-time spans around the program's public layer functions.

The benchmark does not edit the program: it wraps module and class
attributes from the outside, for the lifetime of one traced run
process, and restores them on :meth:`Tracer.uninstall`.  Each call
through a wrapped attribute becomes one span ``(id, name, start, end,
parent, thread)``; spans of one run share :attr:`Tracer.run_id`.  The
parent is the innermost open span on the same thread, so a layer's
self time is its span minus the spans nested directly inside it.

Spans are kept in memory and written out by :meth:`Tracer.dump` when
the run ends.  A target that a later version of the program no longer
has is skipped and listed in :attr:`Tracer.missing`, so the traced run
keeps working and says what it could not see.

Simulation inside ``multiprocessing`` pool workers happens in other
processes and is invisible here; the run reads it from the engine's
own counters instead (``EngineStats.executed`` / ``execute_s``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (id, name, start, end, parent id or None, thread name)
Span = Tuple[int, str, float, float, Optional[int], str]


class _CountingGenerator:
    """Proxy for a generator that counts the items it yields; a yielded
    list counts its length (a min-heap probe round yields heap sizes)."""

    def __init__(self, gen, on_yield: Callable[[object], None]) -> None:
        self._gen = gen
        self._on_yield = on_yield

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self._gen)
        self._on_yield(value)
        return value

    def send(self, value):
        item = self._gen.send(value)
        self._on_yield(item)
        return item

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()


class Tracer:
    """In-memory span recorder plus per-name call counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span (the benchmark's own root
        spans: one per sweep, pass or service job)."""
        tracer = self

        class _Span:
            def __enter__(self):
                stack = tracer._stack()
                self.parent = stack[-1][0] if stack else None
                self.id = next(tracer._ids)
                stack.append((self.id, name))
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                end = time.perf_counter()
                tracer._stack().pop()
                tracer.spans.append(
                    (self.id, name, self.start, end, self.parent,
                     threading.current_thread().name)
                )
                return False

        return _Span()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # ------------------------------------------------------------------
    # Wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, dict, object, float], None]] = None,
        record: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, kwargs, result, end)`` runs once the call returned,
        outside the span.  ``record=False`` keeps only the hook: for a
        call that blocks while idle (a worker waiting for its next job),
        whose span would charge idle time to its layer.  A call made
        while a span of the same name is already innermost on this
        thread (a subclass method calling its base through ``super()``)
        is passed straight through, so it is counted once.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def observer(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, kwargs, result, time.perf_counter())
            return result

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return original(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent,
                     threading.current_thread().name)
                )
            if after is not None:
                after(args, kwargs, result, end)
            return result

        replacement = wrapper if record or after is None else observer
        replacement.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def wrap_generator(self, owner: object, attr: str, counter: str) -> None:
        """Count the items a generator function yields (no span: the
        generator's body runs interleaved with its consumer)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def on_yield(value: object) -> None:
            tracer.counts[counter] += len(value) if hasattr(value, "__len__") else 1

        def wrapper(*args, **kwargs):
            return _CountingGenerator(original(*args, **kwargs), on_yield)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Summaries

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by direct child
        spans (children never outlive their parent on one thread)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """(calls, total seconds) per span name."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for _, name, start, end, _, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON (one file per run)."""
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "thread"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        path.write_text(json.dumps(payload))


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component
    (``engine.cache.get`` -> ``engine``)."""
    return name.split(".", 1)[0]
