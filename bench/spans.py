"""In-memory span tracer for the traced benchmark run, and self-time arithmetic.

``Tracer.install`` wraps the public functions and public methods of every
loglap layer module from outside the package: each wrapper is bound under
every name a caller looks it up by (``loglap.kernels.radial_antiderivative``
and the copy ``loglap.eigen.radial_antiderivative`` imported into eigen),
and class methods are replaced on the class.  A few private helpers and
third-party entry points get counting wrappers without spans.  ``uninstall``
restores every original binding.

A span is (name, layer, start, end, parent, thread).  Spans opened on a
worker thread with no open span of their own take the main thread's current
span as parent, so the CLI's thread pool nests under the command that
started it.

Self time: a span's exposed time is its interval minus the union of its
children's intervals.  Where exposed intervals of k threads overlap, each
gets 1/k of that stretch, so the self times of all spans partition the wall
time the root spans cover, threads or not.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "grid", "pointwise", "spectral", "expansion", "eigen", "kernels", "domains", "coeffs")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, layer, start, parent, thread):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, 0.0, self.current(), threading.get_ident())
        self._stack().append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self.begin(name, layer)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrapping --------------------------------------------------------------

    def spanned(self, fn, name: str, layer: str, before=None, after=None):
        """``fn`` inside a span; ``before(span, args, kwargs)`` and ``after(span, result)`` record counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def counting(self, fn, hook):
        """``fn`` with ``hook(args, kwargs)`` run first, and no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, hooks: dict | None = None, counters: list | None = None) -> None:
        """Wrap every public function and method of the loglap layer modules.

        ``hooks`` maps a span name, or failing that a layer, to
        ``(before, after)`` callbacks.
        ``counters`` lists ``(owner, attr, hook)`` for counting-only wrappers,
        applied after the spans so they wrap the spanned binding.
        """
        hooks = hooks or {}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"loglap.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.spanned(obj, name, layer, *hooks.get(name, hooks.get(layer, (None, None))))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__call__"):
                            name = f"{layer}.{attr}.{meth}"
                            hook = hooks.get(name, hooks.get(layer, (None, None)))
                            self._patch(obj, meth, self.spanned(fn, name, layer, *hook))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "loglap" and not mod_name.startswith("loglap."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for owner, attr, hook in counters or []:
            self._patch(owner, attr, self.counting(getattr(owner, attr), hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# self-time arithmetic


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def exposed_intervals(spans) -> list[list[tuple[float, float]]]:
    """Per span: its interval minus the union of its children's intervals."""
    index = {id(s): i for i, s in enumerate(spans)}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and id(s.parent) in index:
            children[index[id(s.parent)]].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        pieces, cursor = [], s.start
        for a, b in _merge((max(a, s.start), min(b, s.end)) for a, b in children[i]):
            if a > cursor:
                pieces.append((cursor, a))
            cursor = max(cursor, b)
        if s.end > cursor:
            pieces.append((cursor, s.end))
        out.append(pieces)
    return out


def self_times(spans) -> list[float]:
    """Self time of each span, sharing stretches where k threads are exposed at once."""
    events = []
    for i, pieces in enumerate(exposed_intervals(spans)):
        for a, b in pieces:
            if b > a:
                events.append((a, 1, i))
                events.append((b, -1, i))
    events.sort(key=lambda e: (e[0], e[1]))
    result = [0.0] * len(spans)
    active: set[int] = set()
    last = None
    for t, kind, i in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                result[j] += share
        last = t
        if kind > 0:
            active.add(i)
        else:
            active.discard(i)
    return result
