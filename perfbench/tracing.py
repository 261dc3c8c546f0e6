"""Span tracing of lidarplace from outside the package, and the span arithmetic.

A :class:`Tracer` replaces each public function of the package's modules with
a timing wrapper at every module attribute that holds it, so a call is seen at
the name its caller looks up (``cost.first_level_labels``,
``segmentation.world_to_lidar``, ``cli.estimate_odr``, ``cost.max_vsr``, ...).
Spans stay in memory until the traced command ends; ``restore`` puts every
original function back.

Self time of a span is its interval minus the union of its children's
intervals.  Children may run on several threads at once (the colony's
evaluation pool), so the union, not the sum, is subtracted; the time two
children overlap is reported separately as ``overlap``.  For one root span,
``sum(self) - overlap + uncovered == wall`` holds exactly, where ``uncovered``
is the part of the command's wall time no span covers.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Span",
    "Patches",
    "Tracer",
    "PoseRepeatCounter",
    "union_length",
    "account",
]


@dataclass(frozen=True)
class Span:
    """One call of a wrapped function; ``parent`` is the causing span's id."""

    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    extra: dict | None = None

    def as_list(self) -> list:
        return [self.sid, self.parent, self.name, self.thread, self.start, self.end, self.extra]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Patches:
    """Replace functions at every attribute of ``namespaces`` that holds them."""

    def __init__(self, namespaces: Iterable):
        self._namespaces = list(namespaces)
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original: Callable, replacement: Callable) -> int:
        """Point every attribute holding ``original`` at ``replacement``."""
        count = 0
        for ns in self._namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, key, value))
                    setattr(ns, key, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        for ns, key, value in reversed(self._saved):
            setattr(ns, key, value)
        self._saved.clear()


def public_functions(module) -> dict[str, Callable]:
    """Functions listed in ``module.__all__`` and defined in that module."""
    out = {}
    for attr in getattr(module, "__all__", ()):
        value = getattr(module, attr)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out[attr] = value
    return out


class Tracer:
    """Thread-safe in-memory span recorder.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost span open on the main thread, which is the
    call that dispatched the work.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._next_id = 0
        self.spans: list[Span] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """Timing wrapper; ``measure(args, kwargs, result)`` adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            thread = threading.get_ident()
            with self._lock:
                sid = self._next_id
                self._next_id += 1
                if stack:
                    parent = stack[-1]
                elif self._main_stack and stack is not self._main_stack:
                    parent = self._main_stack[-1]
                else:
                    parent = None
                stack.append(sid)
            ok = False
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self._clock()
                extra = measure(args, kwargs, result) if ok and measure is not None else None
                with self._lock:
                    stack.pop()
                    self.spans.append(Span(sid, parent, name, thread, start, end, extra))

        return traced

    def install(self, modules, patches: Patches, measures: dict[str, Callable]) -> None:
        """Wrap the public functions of ``modules`` wherever ``patches`` finds them."""
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in public_functions(module).items():
                name = f"{short}.{attr}"
                patches.replace(fn, self.wrap(name, fn, measures.get(name)))


class PoseRepeatCounter:
    """Counts per-sensor pose inputs that were already seen earlier.

    A sensor's digit column is a pure function of its model and pose, so the
    repeat share bounds the hit rate of a per-sensor column cache.
    """

    def __init__(self):
        self._seen: set[tuple[bytes, bytes]] = set()
        self._lock = threading.Lock()

    def observe(self, configs, models) -> tuple[int, int]:
        """Record one labelling call; returns ``(inputs, repeats)``."""
        keys = [
            (np.asarray(m.beam_pitches, dtype=float).tobytes(), c.as_vector().tobytes())
            for c, m in zip(configs, models)
        ]
        repeats = 0
        with self._lock:
            for key in keys:
                if key in self._seen:
                    repeats += 1
                else:
                    self._seen.add(key)
        return len(keys), repeats


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    if hi is not None:
        total += hi - lo
    return total


def account(spans: list[Span], wall_start: float, wall_end: float) -> dict:
    """Self time per span plus the totals that reconcile them with wall time.

    Returns ``self`` (span id -> seconds), ``self_sum``, ``overlap`` (child
    time counted twice because children ran concurrently), ``covered`` (union
    of root spans), ``uncovered`` (``wall - covered``) and ``residual``
    (``self_sum - overlap + uncovered - wall``, zero up to rounding when the
    root spans are disjoint and every child lies inside its parent).
    """
    children: dict[int, list[Span]] = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent is None:
            roots.append(span)
        else:
            children[span.parent].append(span)
    self_time = {}
    overlap = 0.0
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
        ]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = union_length(clipped)
        overlap += sum(b - a for a, b in clipped) - covered
        self_time[span.sid] = (span.end - span.start) - covered
    self_sum = sum(self_time.values())
    wall = wall_end - wall_start
    root_cover = union_length((max(r.start, wall_start), min(r.end, wall_end)) for r in roots)
    uncovered = wall - root_cover
    return {
        "self": self_time,
        "self_sum": self_sum,
        "overlap": overlap,
        "covered": root_cover,
        "uncovered": uncovered,
        "residual": self_sum - overlap + uncovered - wall,
    }
