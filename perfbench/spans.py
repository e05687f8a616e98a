"""In-memory span recorder wrapped around the public calls of each layer.

The benchmark measures end-to-end numbers with nothing installed.  A
traced run installs :class:`Tracer` wrappers around the calls named in
a target table (``(module, qualified name, span name)``), records one
span per call — name, start, end, parent, request id — and keeps every
span in memory until :meth:`Tracer.write` dumps them at the end.

Self time is computed as the span is closed: a span's duration minus
the durations of the child spans that ran inside it on the same thread.
The self times of the spans under a request therefore partition the
part of the request they cover, which is what the per-layer report
sums.

Nothing under ``src/`` changes: module-level functions are rebound in
every loaded ``repro`` module that imported them by name, methods are
replaced on their defining class, and the CG runners (the one solver
method the workloads use) are re-registered through the public
:func:`repro.solvers.registry.register_method`.  Every patch is undone
by :func:`uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self):
        #: ``(span_id, parent_id, name, start, end, self_s, request_id)``.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self):
        stack = self._stack()
        frame = [next(self._ids), 0.0, _now()]
        stack.append(frame)
        return stack, frame

    def _close(self, stack, frame, name) -> None:
        end = _now()
        stack.pop()
        duration = end - frame[2]
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        self.spans.append((frame[0], parent, name, frame[2], end,
                           duration - frame[1],
                           getattr(self._local, "rid", None)))

    def request(self, rid, name: str = "request"):
        """Context manager: a root span whose descendants carry ``rid``."""
        return _RequestSpan(self, rid, name)

    def write(self, path) -> None:
        """Dump every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _RequestSpan:
    def __init__(self, tracer: Tracer, rid, name: str):
        self.tracer, self.rid, self.name = tracer, rid, name

    def __enter__(self):
        local = self.tracer._local
        self._prev = getattr(local, "rid", None)
        local.rid = self.rid
        self._state = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(*self._state, self.name)
        self.tracer._local.rid = self._prev
        return False


def _wrap(tracer: Tracer, fn, name: str):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            stack, frame = tracer._open()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(stack, frame, name)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack, frame = tracer._open()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._close(stack, frame, name)
    return wrapper


def install(tracer: Tracer, targets) -> list:
    """Wrap every target and the CG runners; returns the undo list for
    :func:`uninstall`.

    ``targets`` are ``(module, qualname, span)`` triples; the plain and
    protected CG runners are wrapped as ``solvers.plain`` /
    ``solvers.protected``.
    """
    undo = []
    for module_name, qualname, span in targets:
        module = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if path else getattr(module, attr)
        wrapped = _wrap(tracer, original, span)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if path:
            continue
        # A module-level function is also reachable through every
        # ``from module import name`` binding: rebind those too.
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "") or ""
            if other is module or not other_name.startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    undo.append((other, key, original))
                    setattr(other, key, wrapped)
    from repro.solvers import registry

    record = registry.get_method("cg")
    undo.append((registry, "cg", record))
    registry.register_method(
        "cg",
        _wrap(tracer, record.plain, "solvers.plain"),
        _wrap(tracer, record.protected, "solvers.protected"),
        record.description,
    )
    return undo


def uninstall(undo: list) -> None:
    """Restore everything :func:`install` replaced, newest first."""
    from repro.solvers import registry

    for owner, attr, original in reversed(undo):
        if owner is registry and isinstance(original, registry.SolverMethod):
            registry.register_method(original.name, original.plain,
                                     original.protected, original.description)
        else:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def totals(spans, rids=None) -> dict[str, dict]:
    """Per span name: calls, summed self seconds and summed duration.

    ``rids`` (a set) keeps only spans of those requests.
    """
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                "total_s": 0.0})
    for _sid, _parent, name, start, end, self_s, rid in spans:
        if rids is not None and rid not in rids:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
    return out


def coverage(spans, root: str = "request") -> float:
    """Share of request wall time covered by layer spans beneath it."""
    wall = covered = 0.0
    for _sid, _parent, name, start, end, self_s, _rid in spans:
        if name == root:
            wall += end - start
            covered += (end - start) - self_s
    return covered / wall if wall > 0 else 0.0


def attribute(spans, categories: dict[str, str], rids=None) -> dict[str, float]:
    """Sum self time into the category of each span's nearest categorised
    ancestor-or-self (spans with none fall into ``"other"``)."""
    by_id = {span[0]: span for span in spans}
    memo: dict[int, str] = {}

    def category(span_id: int) -> str:
        chain = []
        found = "other"
        while span_id:
            if span_id in memo:
                found = memo[span_id]
                break
            span = by_id.get(span_id)
            if span is None:
                break
            chain.append(span_id)
            if span[2] in categories:
                found = categories[span[2]]
                break
            span_id = span[1]
        for visited in chain:
            memo[visited] = found
        return found

    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if rids is not None and span[6] not in rids:
            continue
        out[category(span[0])] += span[5]
    return dict(out)
