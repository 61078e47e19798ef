"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` swaps traced wrappers onto the public callables of each
layer at the module or class the callers resolve them from (for example
``repro.core.session.discover_sequential`` or
``repro.sql.engine.base.CachingBackend.execute``) and puts the originals
back when tracing stops.  Nothing inside ``repro`` knows it is traced.

A span is ``(name, start, end, parent, request)``.  Parents come from one
process-wide stack rather than a per-thread one, because the serving path
hops threads: ``DiscoverySession.discover_async`` awaits a pipeline run
on an offload thread, and ``AsyncExecutionBackend.execute`` awaits the
engine on its executor.  The stack is only right while one request is in
flight, which the benchmark guarantees by running a closed loop with a
single client.  Self time is a span's duration minus its children's.

Spans stay in memory and :meth:`Tracer.write` dumps them as JSON lines
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (module, class or None, attribute, span name).  The class is patched
# when given (every caller resolves methods through it); otherwise the
# module-level name the caller looks up at call time.  Stage spans are
# named after the stage itself (``lookup``, ``context``, ...).
SPAN_SITES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serve", "DiscoveryServer", "handle", "serve.handle"),
    ("repro.core.session", "DiscoverySession", "discover_async", "session.discover_async"),
    ("repro.core.session", "DiscoverySession", "discover", "session.discover"),
    ("repro.core.session", None, "discover_sequential", "pipeline.discover"),
    ("repro.core.pipeline", "Stage", "__call__", "<stage>"),
    ("repro.core.squid", "SquidSystem", "execute", "system.execute"),
    ("repro.sql.engine.async_backend", "AsyncExecutionBackend", "execute", "serve.async_execute"),
    ("repro.sql.engine.base", "CachingBackend", "execute", "cache.execute"),
    ("repro.sql.engine.vectorized", "VectorizedBackend", "execute", "vectorized.execute"),
    ("repro.sql.engine.vectorized", None, "plan_joins", "vectorized.plan_joins"),
    ("repro.core.adb", "AbductionReadyDatabase", "build", "adb.build"),
    ("repro.core.adb", "AbductionReadyDatabase", "refresh", "adb.refresh"),
    ("repro.core.derived", None, "materialize", "derived.materialize"),
    ("repro.core.adb", None, "compute_statistics", "statistics.compute"),
    ("repro.core.statistics", None, "compute_statistics", "statistics.compute"),
    ("repro.core.adb", None, "InvertedColumnIndex", "inverted.build"),
)


def _aliases(query: Any) -> int:
    """AST work count: table aliases over every block of a query."""
    blocks = getattr(query, "blocks", None)
    if blocks is not None:
        return sum(len(block.tables) for block in blocks)
    return len(query.tables)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._t0 = time.perf_counter()
        self._installed: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        """Span sites the program no longer has (their metrics read 0)."""

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _observe(self, name: str, args: Tuple[Any, ...], result: Any) -> None:
        """Counts taken at the same boundaries as the spans."""
        if name == "vectorized.execute":
            self.counters["vectorized.aliases"] += _aliases(args[1])
            self.counters["vectorized.rows_out"] += len(result.rows)
        elif name == "adb.refresh":
            for key, value in result.items():
                self.counters[f"adb.{key}"] += value

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self
        stage_named = name == "<stage>"
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                index = tracer._open(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(index)

            return traced_async

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(args[0].name if stage_named else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._observe(name, args, result)
            return result

        return traced

    def _traced_class(self, original: type, name: str) -> type:
        tracer = self

        class Traced(original):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                index = tracer._open(name)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(index)

        Traced.__name__ = original.__name__
        Traced.__qualname__ = original.__qualname__
        return Traced

    def install(self) -> None:
        """Swap every traced wrapper in (idempotent per install/uninstall)."""
        if self._installed:
            return
        wrapped: Dict[int, Any] = {}
        self.missing.clear()
        for module_name, class_name, attr, name in SPAN_SITES:
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            # One wrapper per original object, so a function imported
            # into two modules is traced once.
            replacement = wrapped.get(id(raw))
            if replacement is None:
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name))
                elif isinstance(raw, type):
                    replacement = self._traced_class(raw, name)
                else:
                    replacement = self._wrap(raw, name)
                wrapped[id(raw)] = replacement
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    @contextmanager
    def active(self, enabled: bool = True) -> Iterator[None]:
        """Trace the body when ``enabled``; otherwise run it untouched."""
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (count, inclusive seconds, self seconds)."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - children[i]
        return {name: (int(c), inc, own) for name, (c, inc, own) in out.items()}

    def nested_wait(self, outer: str, inner: str) -> float:
        """Seconds spent in ``outer`` spans outside their direct
        ``inner`` children (time a caller waits on a thread hop)."""
        inner_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if name == inner and parent >= 0:
                inner_time[parent] += end - start
        return sum(
            end - start - inner_time[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == outer
        )

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (times relative to start)."""
        t0 = self._t0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start - t0, 7),
                            "end": round(end - t0, 7),
                            "parent": parent,
                            "request": request,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
