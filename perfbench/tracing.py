"""Span tracing installed from outside the program, plus the span arithmetic.

:class:`Tracer` wraps the public functions of each layer at every module
that binds them by name (``from .matching import structural_match`` makes a
second binding the defining module's attribute does not cover), records one
span per call in memory and writes them out when the run ends.  A span is
``(sid, parent, layer, t0, t1, phase, n, tag)``:

* ``parent`` is the enclosing span of the same task or thread (tracked in a
  context variable, so interleaved asyncio handlers do not adopt each
  other's children); work handed to a thread pool starts a new root;
* ``phase`` is the tracer's phase label when the span closed (``setup``,
  ``measure``, ``check``), so the set-up and the checks can be told apart
  from the measured work;
* ``n`` is a per-call count the layer's result carries (trace steps, ILP
  nodes, candidates, ...), ``None`` when the call returned nothing to count
  or raised; ``tag`` is the binding site (module name) or, for service
  requests, the protocol op.

Self time is a span's duration minus the part of it its child spans cover
(:func:`self_times`).  Nothing here imports the program: the wrap table
names modules as strings and is resolved by :meth:`Tracer.install`.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "Span",
    "Tracer",
    "WRAPS",
    "covered_length",
    "load_spans",
    "percentile",
    "roots",
    "samples_beyond",
    "self_times",
]


class Span(NamedTuple):
    sid: int
    parent: int | None
    layer: str
    t0: float
    t1: float
    phase: str
    n: int | None
    tag: str | None


# -- per-call counts ---------------------------------------------------------------


def _length(result, _args, _before) -> int | None:
    return None if result is None else len(result)


def _found(result, _args, _before) -> int:
    return 0 if result is None else 1


def _candidates(result, _args, _before) -> int:
    return sum(len(site) for site in result.values())


def _nodes(result, _args, _before) -> int | None:
    return None if result is None else result.nodes_explored


def _clusters_tried(_result, args, _before) -> int:
    return len(args[1])


def _clusters_built(result, _args, _before) -> int:
    return len(result.clusters)


def _trace_steps(result, _args, _before) -> int:
    return len(result)


def _traces_steps(result, _args, _before) -> int:
    return sum(len(trace) for trace in result)


def _dp_before(args) -> int:
    return args[0].dp_runs


def _dp_runs(_result, args, before) -> int:
    return args[0].dp_runs - before


def _request_op(args) -> str | None:
    try:
        return json.loads(args[1]).get("op")
    except (ValueError, AttributeError):
        return None


#: ``(module, attribute, layer, count, before)``: what to wrap.  ``attribute``
#: may be ``Class.method``; ``count(result, args, before)`` gives the span's
#: ``n`` and ``before(args)`` snapshots state for it before the call.  With
#: ``before`` but no ``count``, the snapshot is the span's tag instead.
WRAPS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.frontend", "parse_source", "frontend.parse", None, None),
    ("repro.core.inputs", "program_traces", "interpreter.traces", _traces_steps, None),
    ("repro.interpreter.executor", "execute", "interpreter.execute", _trace_steps, None),
    ("repro.core.matching", "structural_match", "core.matching", _found, None),
    (
        "repro.core.localrepair",
        "generate_local_repairs",
        "core.localrepair",
        _candidates,
        None,
    ),
    ("repro.ted.zhang_shasha", "TedCache.distance", "ted", _dp_runs, _dp_before),
    ("repro.ilp.fastpath", "solve_fast", "ilp.solve_fast", _nodes, None),
    ("repro.ilp.solver", "solve", "ilp.solve", _nodes, None),
    ("repro.core.repair", "find_best_repair", "core.repair", _clusters_tried, None),
    ("repro.core.feedback", "generate_feedback", "core.feedback", None, None),
    ("repro.core.clustering", "cluster_programs", "core.clustering", _clusters_built, None),
    ("repro.clusterstore.store", "open_lazy", "clusterstore.open", None, None),
    (
        "repro.clusterstore.store",
        "LazyStoredClustering.clusters_for_program",
        "clusterstore.page_in",
        _length,
        None,
    ),
    (
        "repro.clusterstore.store",
        "ClusterStore.add_correct_source",
        "clusterstore.update",
        None,
        None,
    ),
    ("repro.clusterstore.store", "ClusterStore.save", "clusterstore.update", None, None),
    ("repro.retrieval.index", "ranked_candidates", "retrieval.rank", _length, None),
    ("repro.core.pipeline", "Clara.repair_program", "engine.batch", None, None),
    (
        "repro.service.service",
        "RepairService.handle_line",
        "service.handle",
        None,
        _request_op,
    ),
    ("repro.engine.parallel", "shard_plan", "engine.parallel", None, None),
)

#: Modules imported before wrapping, so every by-name binding already exists
#: when the binding sites are scanned.
_PRELOAD = (
    "repro.cli",
    "repro.service",
    "repro.engine.parallel",
    "repro.clusterstore.store",
    "repro.core",
    "repro.ilp",
    "repro.ted",
    "repro.retrieval",
    "repro.interpreter",
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        #: Wrappers pass straight through while this is false.
        self.enabled = True
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Shard lists returned by ``shard_plan`` (the parallel layer).
        self.shard_plans: list[list[list[int]]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, layer, count, before, tag):
        current = self._current
        spans = self.spans
        ids = self._ids
        tracer = self

        def finish(sid, parent, t0, result, args, snap, raised):
            t1 = time.perf_counter()
            n = None
            if not raised and count is not None:
                n = count(result, args, snap)
            call_tag = snap if count is None and before is not None else tag
            spans.append(Span(sid, parent, layer, t0, t1, tracer.phase, n, call_tag))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                snap = before(args) if before is not None else None
                t0 = time.perf_counter()
                result = None
                raised = True
                try:
                    result = await fn(*args, **kwargs)
                    raised = False
                    return result
                finally:
                    current.reset(token)
                    finish(sid, parent, t0, result, args, snap, raised)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            snap = before(args) if before is not None else None
            t0 = time.perf_counter()
            result = None
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                current.reset(token)
                finish(sid, parent, t0, result, args, snap, raised)

        return wrapper

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPS` at each of its binding sites.

        Methods are wrapped once on their class.  Functions are wrapped at
        every loaded ``repro`` module whose attribute *is* the original
        function, each site with its own wrapper tagged by the module name.
        Modules importing the function later read the defining module's
        (wrapped) attribute, so they are covered as well.
        """
        for name in _PRELOAD:
            importlib.import_module(name)
        for module_name, attribute, layer, count, before in WRAPS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(original, layer, count, before, None))
                continue
            target = getattr(module, attribute)
            original = target
            if attribute == "shard_plan":
                original = self._recording_shard_plan(target)
            for site_name, site in sorted(sys.modules.items()):
                if not site_name.startswith("repro") or site is None:
                    continue
                if site.__dict__.get(attribute) is target:
                    wrapped = self._wrap(original, layer, count, before, site_name)
                    setattr(site, attribute, wrapped)

    def _recording_shard_plan(self, fn):
        plans = self.shard_plans

        @functools.wraps(fn)
        def recording(*args, **kwargs):
            plan = fn(*args, **kwargs)
            plans.append(plan)
            return plan

        return recording

    # -- persistence ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans]}, handle)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)["spans"]]


# -- span arithmetic ---------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.t0, span.t1))
    return {
        span.sid: (span.t1 - span.t0) - covered_length(children[span.sid], span.t0, span.t1)
        for span in spans
    }


def roots(spans: Sequence[Span]) -> dict[int, Span]:
    """Map every span id to the root span of its tree (itself for a root).

    A span whose parent was not recorded (it is still open, or belongs to
    another process) counts as a root.
    """
    by_id = {span.sid: span for span in spans}
    found: dict[int, Span] = {}
    for span in spans:
        path = []
        node = span
        while node.sid not in found and node.parent in by_id:
            path.append(node)
            node = by_id[node.parent]
        root = found.get(node.sid, node)
        for item in path + [node]:
            found[item.sid] = root
    return found


# -- percentiles ---------------------------------------------------------------------

#: A percentile is only reported with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` quantile of ``count``."""
    return count - max(1, math.ceil(q * count))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in (0, 1]; refuses thin tails.

    Raises:
        ValueError: fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond
            the requested quantile (p90 needs at least 100 samples).
    """
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{round(q * 100)} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
