"""Span recorder that wraps mdtail's public functions from outside the package.

Every function named in a module's ``__all__`` is replaced, for the lifetime
of a ``Tracer`` context, by a wrapper that records one span per call.  The
wrapper is installed in every mdtail namespace that holds the function
(the defining module, modules that imported the name, and the package
itself), so calls between mdtail modules are seen too.  Classes, methods
such as ``ScaleFunction.__call__`` and the sampler closures are left alone:
they run tens of thousands of times per call into the library and are
measured by direct probes instead.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

MODULES = ("scale", "tails", "exponents", "rate", "simulate", "report")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    error: str | None = None
    args: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap each other (calls made from worker threads), so the
    covered part is the length of the union of the child intervals, clipped
    to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.span_id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Context manager that patches mdtail's public functions with span recorders.

    ``record_args`` maps a span name such as ``"simulate.crude_mc"`` to the
    parameter names whose values are stored on that span, so counts can be
    taken at the layer boundary.
    """

    def __init__(self, package, record_args: dict[str, tuple[str, ...]] | None = None):
        self.package = package
        self.record_args = record_args or {}
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        keep = self.record_args.get(name, ())
        sig = inspect.signature(fn) if keep else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            recorded = {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                recorded = {k: bound[k] for k in keep if k in bound}
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tracer.run_id, error, recorded)
                )

        return wrapper

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for mod_name in MODULES:
            mod = getattr(self.package, mod_name)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{mod_name}.{name}", fn)
        namespaces = [self.package] + [getattr(self.package, m) for m in MODULES]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
