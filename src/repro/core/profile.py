"""Per-phase profiling of the repair pipeline (``repro-clara batch --profile``).

A :class:`PhaseProfiler` accumulates wall-clock time and call counts per
pipeline phase — ``parse``, ``exec``, ``match``, ``candidate_gen``, ``ted``
and ``ilp`` — across every attempt of a batch run.  The ``exec`` phase
covers Def. 3.5 trace execution (the compiled fast path of
:mod:`repro.interpreter`); its companion ``exec_steps`` counter records how
many location steps those executions took.  The ``ilp`` phase covers repair
selection solves (:func:`repro.ilp.solve_fast`), with counter-only
companions ``ilp_solves`` (solves that produced a solution), ``ilp_nodes``
(branch-and-bound nodes those solves explored — zero for memo hits) and
``candidates_generated`` (indicator variables handed to the solver).  It is attached to the
pipeline's :class:`repro.engine.cache.RepairCaches` (``caches.profiler``)
and threaded from there into the repair core, so instrumentation costs
nothing when no profiler is attached (the common case): every hook goes
through :func:`profiled`, which is a no-op for ``profiler=None``.

Counters are deterministic for a given corpus and single-worker run, which
is what the CI fast-tests exercise; timings are machine-dependent and only
ever written to the gitignored ``results/local/``.

Profilers are mergeable: :meth:`PhaseProfiler.merge` sums two accumulators
field by field (commutative, with a fresh profiler as the identity) and
:meth:`PhaseProfiler.diff` subtracts one snapshot from another.  The
process-parallel batch engine (:mod:`repro.engine.parallel`) relies on
merge to fold per-worker profiler payloads — shipped across the pipe as
:meth:`as_dict` / :meth:`from_dict` — into one report whose *counters*
equal the single-process run exactly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["PhaseProfiler", "profiled", "PHASES"]

#: Canonical phase order for reports.
PHASES = ("parse", "exec", "match", "candidate_gen", "ted", "ilp")


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
            ordered = [p for p in PHASES if p in self._calls]
            ordered += sorted(set(self._calls) - set(PHASES))
            return {phase: self._calls[phase] for phase in ordered}

    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock seconds per phase (machine-dependent)."""
        with self._lock:
            ordered = [p for p in PHASES if p in self._seconds]
            ordered += sorted(set(self._seconds) - set(PHASES))
            return {phase: round(self._seconds[phase], 6) for phase in ordered}

    def as_dict(self) -> dict:
        """``{"counters": {...}, "timings": {...}}`` for JSON reports."""
        return {"counters": self.counters(), "timings": self.timings()}

    # -- algebra ---------------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseProfiler":
        """Rebuild a profiler from an :meth:`as_dict` payload.

        The inverse of :meth:`as_dict` (modulo its 6-decimal timing
        rounding); this is how per-worker profilers cross the process
        boundary in :mod:`repro.engine.parallel`.  Unknown payload shapes
        (missing keys) read as empty sections.
        """
        profiler = cls()
        for phase, seconds in (payload.get("timings") or {}).items():
            profiler._seconds[phase] = float(seconds)
        for phase, calls in (payload.get("counters") or {}).items():
            profiler._calls[phase] = int(calls)
        return profiler

    def merge(self, other: "PhaseProfiler") -> "PhaseProfiler":
        """Return a new profiler with both operands' phases summed.

        Commutative (``a.merge(b)`` equals ``b.merge(a)``) with a fresh
        profiler as the identity, so folding any permutation of per-worker
        profilers yields the same counters — the property the
        process-parallel batch merge rests on.  Neither operand is
        mutated.
        """
        merged = PhaseProfiler()
        with self._lock:
            merged._seconds.update(self._seconds)
            merged._calls.update(self._calls)
        with other._lock:
            for phase, seconds in other._seconds.items():
                merged._seconds[phase] = merged._seconds.get(phase, 0.0) + seconds
            for phase, calls in other._calls.items():
                merged._calls[phase] = merged._calls.get(phase, 0) + calls
        return merged

    def diff(self, other: "PhaseProfiler") -> "PhaseProfiler":
        """Return a new profiler holding ``self - other`` per phase.

        The inverse of :meth:`merge` (``a.merge(b).diff(b)`` reports the
        same values as ``a``): use it to isolate the work done between two
        snapshots.  Phases that cancel to exactly zero are pruned — so the
        inverse law holds even for phases only ``other`` knew — while a
        *negative* residue is kept visible rather than silently dropped.
        Neither operand is mutated.
        """
        result = PhaseProfiler()
        with self._lock:
            result._seconds.update(self._seconds)
            result._calls.update(self._calls)
        with other._lock:
            for phase, seconds in other._seconds.items():
                result._seconds[phase] = result._seconds.get(phase, 0.0) - seconds
            for phase, calls in other._calls.items():
                result._calls[phase] = result._calls.get(phase, 0) - calls
        result._seconds = {p: s for p, s in result._seconds.items() if s != 0.0}
        result._calls = {p: c for p, c in result._calls.items() if c != 0}
        return result


@contextmanager
def profiled(profiler: PhaseProfiler | None, name: str) -> Iterator[None]:
    """Time a block under ``name`` when a profiler is attached; else no-op."""
    if profiler is None:
        yield
        return
    with profiler.phase(name):
        yield
