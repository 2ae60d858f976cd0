"""Spans recorded from outside the program, and the patches that make them.

The benchmark measures each layer of ``repro`` by wrapping the layer's
public calls (see ``layers.py``); nothing inside ``src/`` changes.  A
:class:`Tracer` keeps every span in memory.  A span's parent is the
span open on the same thread when it began or, for work handed to a
background thread (the store writer, the serve batcher), the span that
caused it, passed explicitly or through a per-thread resolver.
:class:`Patches` installs the wrappers and puts every original back, so
an untraced measurement always runs unpatched code.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional["Span"] = None
    thread: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread name -> callable giving the causing span for spans that
        #: open on that thread with nothing else open
        self.resolvers: Dict[str, Callable[[], Optional[Span]]] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        thread = threading.current_thread().name
        if parent is None:
            if stack:
                parent = stack[-1]
            elif thread in self.resolvers:
                parent = self.resolvers[thread]()
        span = Span(name, self.clock(), parent=parent, thread=thread)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if not hasattr(self._local, "last"):
            self._local.last = {}
        self._local.last[span.name] = span
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, parent: Optional[Span] = None) -> "_SpanContext":
        return _SpanContext(self, name, parent)

    def last(self, name: str) -> Optional[Span]:
        """The most recently closed span called ``name`` on this thread."""
        return getattr(self._local, "last", {}).get(name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str,
                 parent: Optional[Span]) -> None:
        self._tracer, self._name, self._parent = tracer, name, parent

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._name, self._parent)
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self._tracer.end(self.span)


def spanned(
    tracer: Tracer,
    name: str,
    *,
    parent: Optional[Callable[..., Optional[Span]]] = None,
    attrs: Optional[Callable[..., Dict[str, Any]]] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: run the call inside a span called ``name``.

    ``parent(args, kwargs)`` may name the causing span; ``attrs(args,
    kwargs, result)`` fills ``span.attrs`` after the call returns.
    """
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cause = parent(args, kwargs) if parent is not None else None
            span = tracer.begin(name, cause)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        wrapper._perfbench_wrapper = True  # type: ignore[attr-defined]
        return wrapper
    return wrap


class Patches:
    """Reversible attribute replacements; :meth:`restore` undoes them all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def attr(self, owner: Any, name: str, wrap: Callable[[Any], Any]) -> None:
        """Replace one attribute of a class or module with ``wrap(old)``.

        A class must define the attribute itself, so that putting the
        original back leaves no copy shadowing an inherited one.
        """
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        setattr(owner, name, wrap(original))
        self._undo.append((owner, name, original))

    def everywhere(self, module: Any, name: str,
                   wrap: Callable[[Any], Any]) -> None:
        """Replace ``module.name`` and every other binding of the same
        function in the loaded modules of ``module``'s top-level package
        (names imported with ``from ... import``)."""
        original = getattr(module, name)
        wrapped = wrap(original)
        package = module.__name__.split(".")[0]
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name.split(".")[0] != package:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# -- span arithmetic -------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered(spans: Iterable[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` that at least one span covers."""
    return union_length(
        (max(s.start, start), min(s.end, end)) for s in spans
    )


def self_times(spans: List[Span]) -> Dict[Span, float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads count only where they overlap the parent's
    own interval, and overlapping children are not subtracted twice.
    """
    children: Dict[Span, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s: s.duration - covered(children.get(s, ()), s.start, s.end)
        for s in spans
    }
