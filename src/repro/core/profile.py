"""Per-phase profiling of the repair pipeline (``repro-clara batch --profile``).

A :class:`PhaseProfiler` accumulates wall-clock time and call counts per
pipeline phase — ``parse``, ``exec``, ``match``, ``candidate_gen``, ``ted``
and ``ilp`` — across every attempt of a batch run.  The ``exec`` phase
covers Def. 3.5 trace execution (the compiled fast path of
:mod:`repro.interpreter`); its companion ``exec_steps`` counter records how
many location steps those executions took.  The ``ilp`` phase covers repair
selection: building the ILP (:func:`repro.core.repair._build_ilp`) and
solving it (:func:`repro.ilp.solve_fast`), timed as one call per ILP, with
counter-only companions ``ilp_solves`` (solves that produced a solution),
``ilp_nodes`` (branch-and-bound nodes those solves explored — zero for memo
hits) and ``candidates_generated`` (indicator variables handed to the
solver).  It is attached to the pipeline's :class:`repro.engine.cache.RepairCaches` (``caches.profiler``)
and threaded from there into the repair core, so instrumentation costs
nothing when no profiler is attached (the common case): every hook goes
through :func:`profiled`, which is a no-op for ``profiler=None``.

Counters are deterministic for a given corpus and single-worker run, which
is what the CI fast-tests exercise; timings are machine-dependent and only
ever written to the gitignored ``results/local/``.

Counters merge by plain sums: :func:`sum_counters` adds flat counter dicts
key by key, and :func:`merge_phases` adds :meth:`PhaseProfiler.as_dict`
payloads in the same canonical phase order and timing rounding that a
single profiler reports.  The process-parallel batch engine
(:mod:`repro.engine.parallel`) and the fleet router use them to fold
per-worker payloads into one report whose *counters* equal the sum of
the workers' own runs exactly.  This module imports nothing from
:mod:`repro`, so every layer can use it without import cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = ["PhaseProfiler", "profiled", "PHASES", "sum_counters", "merge_phases"]

#: Canonical phase order for reports.
PHASES = ("parse", "exec", "match", "candidate_gen", "ted", "ilp")


def _canonical(values: dict) -> dict:
    """``values`` re-keyed in report order: :data:`PHASES`, then the rest sorted."""
    ordered = [p for p in PHASES if p in values]
    ordered += sorted(set(values) - set(PHASES))
    return {phase: values[phase] for phase in ordered}


def sum_counters(sections: Iterable[dict]) -> dict:
    """Key-wise sum of flat ``{name: number}`` counter dicts.

    Keys keep their first-seen order, so summing payloads that share one
    key order reproduces that order.  Commutative in the values, with
    ``{}`` as the identity; the operands are not mutated.
    """
    merged: dict = {}
    for section in sections:
        for name, value in section.items():
            merged[name] = merged.get(name, 0) + value
    return merged


def merge_phases(payloads: Iterable[dict]) -> dict:
    """Sum :meth:`PhaseProfiler.as_dict` payloads into one payload.

    Counters and timings are summed per phase, reported in canonical
    phase order with timings rounded as :meth:`PhaseProfiler.timings`
    does, so the result does not depend on the order of ``payloads``.
    Counter-only phases stay out of ``timings``.
    """
    payloads = list(payloads)
    counters = sum_counters(payload["counters"] for payload in payloads)
    timings = sum_counters(payload["timings"] for payload in payloads)
    return {
        "counters": _canonical(counters),
        "timings": {
            phase: round(seconds, 6) for phase, seconds in _canonical(timings).items()
        },
    }


class PhaseProfiler:
    """Thread-safe accumulator of per-phase timings and call counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Record ``seconds`` of work (and ``calls`` invocations) for a phase."""
        with self._lock:
            self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
            self._calls[phase] = self._calls.get(phase, 0) + calls

    def count(self, phase: str, calls: int = 1) -> None:
        """Record invocations without timing (counter-only instrumentation).

        Counter-only phases (e.g. ``exec_steps``) never appear in
        :meth:`timings`, so reports don't list spurious 0-second phases.
        """
        with self._lock:
            self._calls[phase] = self._calls.get(phase, 0) + calls

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block of work under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    # -- reports ---------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Timing-free call counts per phase (deterministic for a corpus)."""
        with self._lock:
            return _canonical(self._calls)

    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock seconds per phase (machine-dependent)."""
        with self._lock:
            return {p: round(s, 6) for p, s in _canonical(self._seconds).items()}

    def as_dict(self) -> dict:
        """``{"counters": {...}, "timings": {...}}`` for JSON reports."""
        return {"counters": self.counters(), "timings": self.timings()}


@contextmanager
def profiled(profiler: PhaseProfiler | None, name: str) -> Iterator[None]:
    """Time a block under ``name`` when a profiler is attached; else no-op."""
    if profiler is None:
        yield
        return
    with profiler.phase(name):
        yield
