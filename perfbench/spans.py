"""In-memory spans, reversible patches and the sparse matvec counter.

The benchmark records one span (name, start, end, parent) around each call
into a public entry point of the ``levelset`` layers. Spans stay in memory
until the run ends; :func:`summarize` reduces them to per-name call counts,
busy time, self time and matrix-vector products.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import scipy.sparse as sps


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    matvecs: int = 0


class Tracer:
    """Records nested spans; the innermost open span owns counted matvecs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self.muted = False
        self.unattributed_matvecs = 0

    def enter(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, sid):
        self.spans[sid].end = self.clock()
        popped = self._open.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.spans[sid].name} closed out of order")

    def count_matvec(self, n=1):
        if self._open:
            self.spans[self._open[-1]].matvecs += n
        else:
            self.unattributed_matvecs += n

    def wrap(self, name, func):
        """``func`` recorded as span ``name`` unless the tracer is muted."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.muted:
                return func(*args, **kwargs)
            sid = self.enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.exit(sid)

        return traced


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class SpanTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    matvecs: int = 0


def summarize(spans):
    """Per-name totals over a finished span list."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        tot = out.setdefault(s.name, SpanTotals())
        tot.calls += 1
        tot.busy_s += s.end - s.start
        tot.self_s += own
        tot.matvecs += s.matvecs
    return out


def descendants_per(spans, outer, inner):
    """For each ``outer`` span, the number of ``inner`` spans below it."""
    counts = {i: 0 for i, s in enumerate(spans) if s.name == outer}
    for s in spans:
        if s.name != inner:
            continue
        p = s.parent
        while p is not None:
            if p in counts:
                counts[p] += 1
                break
            p = spans[p].parent
    return [counts[i] for i in sorted(counts)]


class Patches:
    """Attribute replacements that are all undone, in reverse, on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_everywhere(self, func, wrapper, package="levelset"):
        """Replace ``func`` in every module of ``package`` that binds it.

        Modules that import a function by name keep their own reference, so
        patching only the defining module would miss their calls.
        """
        wrapped = wrapper(func)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is func:
                    self.set(mod, attr, wrapped)
                    hits += 1
        if not hits:
            raise LookupError(f"{func.__qualname__} is bound in no {package} module")

    def wrap_method(self, cls, name, wrapper):
        self.set(cls, name, wrapper(getattr(cls, name)))

    def restore(self):
        while self._saved:
            setattr(*self._saved.pop())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def matvec_owner():
    """The scipy class whose method every sparse matrix-vector product runs."""
    for cls in sps.csr_matrix.__mro__:
        if "_matmul_vector" in vars(cls):
            return cls
    raise LookupError("scipy.sparse has no _matmul_vector boundary")


def count_matvecs(patches, tracer):
    """Count each sparse matrix @ vector product into the innermost span.

    The count sits below ``scipy.sparse.linalg`` as well as below the
    package's own Krylov loops, so it survives a move between them.
    """

    def wrapper(method):
        @functools.wraps(method)
        def counted(self, other):
            if not tracer.muted:
                tracer.count_matvec()
            return method(self, other)

        return counted

    patches.wrap_method(matvec_owner(), "_matmul_vector", wrapper)
