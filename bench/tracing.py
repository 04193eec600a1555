"""Span recorder that wraps mgonal's public functions from outside the package.

Each wrapped function gets a span (name, start, end, parent, attributes) per
call.  A function is replaced in every module namespace that binds it, so
calls made inside the package (``represent.polygonal_values`` from the sieve,
``reduction.solve_system`` from ``feasible_k``) are recorded too.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

# (defining module, function): the layer boundaries the benchmark records.
TRACED = (
    ("forms", "polygonal_values"),
    ("represent", "represented_set"),
    ("represent", "represents"),
    ("represent", "solve_system"),
    ("represent", "truant_up_to"),
    ("local", "locally_represented"),
    ("local", "mgonal_represents_zp"),
    ("local", "quad_diag_represents_zp"),
    ("reduction", "k_window"),
    ("reduction", "feasible_k"),
    ("escalator", "local_universal_quad"),
    ("escalator", "exceptions"),
    ("escalator", "build_tree"),
    ("escalator", "gamma_estimate"),
    ("escalator", "node_truant"),
    ("cli", "load_or_build_set"),
    ("cli", "main"),
)

MODULES = ("forms", "represent", "local", "reduction", "escalator", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "error")

    def __init__(self, name: str, start: float, parent: int | None, attrs: dict | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.error: str | None = None


class Tracer:
    """Installs wrappers on demand; records spans only while enabled.

    ``probes`` maps a span name to a callable ``probe(args, kwargs)`` that runs
    before the call and returns ``(attrs, finish)``; ``finish(result, error)``
    runs after it and may add to ``attrs``.  Probes run outside the span's
    timed interval.
    """

    def __init__(self, package, probes: dict | None = None):
        self.package = package
        self.probes = probes or {}
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        probe = self.probes.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            attrs, finish = probe(args, kwargs) if probe else (None, None)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, parent, attrs)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if finish is not None:
                    finish(result, span.error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        namespaces = [self.package] + [getattr(self.package, m) for m in MODULES]
        for module, func in TRACED:
            original = getattr(getattr(self.package, module), func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for ns in namespaces:
                if getattr(ns, func, None) is original:
                    self._saved.append((ns, func, original))
                    setattr(ns, func, wrapper)

    def uninstall(self) -> None:
        for ns, func, original in reversed(self._saved):
            setattr(ns, func, original)
        self._saved.clear()

    @contextlib.contextmanager
    def op_span(self, kind: str):
        """Root span of one benchmark call; the library spans below share it."""
        if not self.enabled:
            yield
            return
        span = Span(f"op.{kind}", time.perf_counter(), None, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                if s.error:
                    row["error"] = s.error
                fh.write(json.dumps(row) + "\n")
