"""Memoization layer shared by the pipeline and the batch engine.

MOOC dumps are highly redundant: students resubmit unchanged code, copy each
other, and converge on the same handful of mistakes, so a naive loop over a
corpus re-executes identical programs and re-matches identical control-flow
graphs thousands of times.  This module provides :class:`RepairCaches`, one
object bundling four memo tables that remove that redundancy:

* a **trace/correctness cache** — executions of a program on a case set
  (Def. 3.5 traces, and the correctness predicate of §1, footnote 1) are
  keyed on :meth:`repro.model.program.Program.structure_key` plus a
  canonical key of the case set, so syntactically identical attempts run
  each test case exactly once across a whole batch;
* a **structural-match cache** — the location bijection of Def. 4.1 between
  an attempt and a cluster representative is computed at most once per
  (attempt, representative) pair, and shared between the pipeline's gate
  check and the per-cluster search of
  :func:`repro.core.repair.find_best_repair`;
* a **repair memo** — the full outcome of the cluster search for an attempt
  (status, selected :class:`~repro.core.repair.Repair`, feedback) keyed on
  the attempt fingerprint plus a pipeline-supplied context (pipeline
  identity, clustering version, budget, source positions), so duplicate
  attempts skip the ILP entirely; see
  :meth:`RepairCaches.repair_outcome` for what is deliberately *not*
  cached;
* a **candidate-site memo** — the local repair candidates of one
  (cluster, representative site, attempt site) triple, computed with the
  attempt's variables renamed ``#i`` by position
  (:func:`repro.core.localrepair.canonical_renaming`), so attempts that
  write the same expression under different names share one candidate
  generation and its candidate objects; see
  :meth:`RepairCaches.candidate_site` for the staleness and cost-bound
  rules.

It additionally owns the three fast-path memos and threads them into the
layers that use them: a :class:`repro.ted.TedCache` (annotations + edit
distances, candidate costing), a
:class:`repro.interpreter.compile.CompileCache` (compiled expression
closures, trace execution only — candidate screening evaluates through
:func:`repro.interpreter.evaluate`) and a
:class:`repro.ilp.SolveCache` (ILP solutions keyed by the problem as
built, threaded into :func:`repro.core.repair.repair_against_cluster`
via :func:`repro.ilp.solve_fast`).  All cache-routed executions run under
the profiler's ``exec`` phase; solves run under ``ilp``.

One instance is also the single handle the repair core takes:
:func:`repro.core.repair.find_best_repair`,
:func:`~repro.core.repair.repair_against_cluster` and
:func:`repro.core.localrepair.generate_local_repairs` accept ``caches``
and substitute a fresh ``RepairCaches()`` for ``None`` once, at entry, so
nothing below them branches on a missing cache.

All tables are guarded by a single lock, making one :class:`RepairCaches`
instance safe to share across the repair threads of
:class:`repro.service.RepairService`.  Constructing the caches with
``enabled=False`` turns every lookup into a miss without storing anything,
which is how the uncached baseline of ``benchmarks/test_batch_throughput.py``
is measured; candidate generation then computes every site afresh, in the
same canonical names.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, MutableMapping, Sequence

from ..clusterstore.fingerprint import Fingerprint, program_fingerprint
from ..core.inputs import InputCase, program_traces, trace_passes_case
from ..core.inputs import is_correct as _is_correct_uncached
from ..core.matching import structural_match
from ..core.profile import PhaseProfiler, profiled
from ..ilp.fastpath import SolveCache
from ..interpreter.compile import CompileCache
from ..model.program import Program
from ..model.trace import Trace
from ..retrieval import RetrievalStats
from ..ted import TedCache

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..core.clustering import Cluster
    from ..core.localrepair import LocalRepairCandidate

__all__ = ["CacheStats", "RepairCaches", "case_set_key", "freeze_key"]


def freeze_key(value: object) -> object:
    """Convert ``value`` into an equivalent hashable form.

    Test-case payloads may contain lists and dicts (e.g. the ``derivatives``
    problem passes coefficient lists); cache keys must be hashable, so
    containers are converted recursively: lists/tuples become tuples, sets
    become sorted tuples, dicts become sorted item tuples.  Scalars pass
    through unchanged.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze_key(item) for item in value)
    if isinstance(value, set):
        return tuple(sorted((freeze_key(item) for item in value), key=repr))
    if isinstance(value, dict):
        return tuple(
            (freeze_key(k), freeze_key(v)) for k, v in sorted(value.items(), key=repr)
        )
    return value


def _case_key(case: InputCase) -> tuple:
    return (
        freeze_key(case.args),
        freeze_key(case.stdin),
        case.checks_return(),
        freeze_key(case.expected_return) if case.checks_return() else None,
        case.checks_output(),
        freeze_key(case.expected_output) if case.checks_output() else None,
    )


def case_set_key(cases: Sequence[InputCase]) -> tuple:
    """Return a hashable canonical key for an ordered case set.

    Order matters: traces are cached as a list parallel to ``cases``, so two
    case sets with the same members in different orders get distinct keys.
    """
    return tuple(_case_key(case) for case in cases)


#: Bulk-flush threshold of the candidate-site memo.  Like the expression
#: intern table, a rare full clear only costs recomputation, so there is no
#: per-entry eviction bookkeeping.
MAX_CANDIDATE_SITES = 1 << 14


@dataclass
class CacheStats:
    """Hit/miss counters for the memo tables.

    ``trace`` counts trace/correctness lookups, ``match`` counts
    structural-match lookups, ``repair`` counts whole-outcome lookups and
    ``site`` counts candidate-site lookups.  A lookup with caching disabled
    counts as a miss, so hit rates remain comparable between cached and
    uncached runs; the exception is the site memo, which disabled caches
    bypass without a lookup (its counters stay 0).

    Like every counter here, the site counters are deterministic for a
    fixed sequence of repairs on one thread.  Under ``batch --processes``
    each worker runs such a sequence over its shard
    (:func:`repro.engine.parallel.shard_plan`), so the merged counters are
    the sum of those per-shard runs; a site two shards both look up is a
    miss in each.
    """

    trace_hits: int = 0
    trace_misses: int = 0
    match_hits: int = 0
    match_misses: int = 0
    repair_hits: int = 0
    repair_misses: int = 0
    site_hits: int = 0
    site_misses: int = 0

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def trace_hit_rate(self) -> float:
        return self._rate(self.trace_hits, self.trace_misses)

    @property
    def match_hit_rate(self) -> float:
        return self._rate(self.match_hits, self.match_misses)

    @property
    def repair_hit_rate(self) -> float:
        return self._rate(self.repair_hits, self.repair_misses)

    @property
    def site_hit_rate(self) -> float:
        return self._rate(self.site_hits, self.site_misses)

    def as_dict(self) -> dict[str, float]:
        """Flat dict of all counters and rates, for JSON reports."""
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "trace_hit_rate": self.trace_hit_rate,
            "match_hits": self.match_hits,
            "match_misses": self.match_misses,
            "match_hit_rate": self.match_hit_rate,
            "repair_hits": self.repair_hits,
            "repair_misses": self.repair_misses,
            "repair_hit_rate": self.repair_hit_rate,
            "site_hits": self.site_hits,
            "site_misses": self.site_misses,
            "site_hit_rate": self.site_hit_rate,
        }

    def snapshot(self) -> "CacheStats":
        return replace(self)

    # -- algebra ---------------------------------------------------------------

    _COUNTER_FIELDS = (
        "trace_hits",
        "trace_misses",
        "match_hits",
        "match_misses",
        "repair_hits",
        "repair_misses",
        "site_hits",
        "site_misses",
    )

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheStats":
        """Rebuild counters from an :meth:`as_dict` payload (rates ignored).

        The hit rates are derived values and are recomputed from the
        counters, so ``CacheStats.from_dict(stats.as_dict())`` round-trips
        exactly.  :mod:`repro.engine.parallel` builds the merged report's
        stats as ``CacheStats.from_dict(sum_counters(...))`` over the
        workers' payloads; the summed rates are ignored.
        """
        return cls(**{name: int(payload.get(name, 0)) for name in cls._COUNTER_FIELDS})

    def diff(self, other: "CacheStats") -> "CacheStats":
        """Return a new snapshot holding ``self - other`` per counter.

        The batch engine uses it to isolate the counters accumulated
        *during* one run from whatever the shared caches saw before it
        started.
        """
        return CacheStats(
            **{
                name: getattr(self, name) - getattr(other, name)
                for name in self._COUNTER_FIELDS
            }
        )


@dataclass
class RepairCaches:
    """Shared memoization for traces, correctness, matching and repairs.

    Args:
        enabled: When ``False`` every lookup misses and nothing is stored;
            computations still run, making this the switch for uncached
            baselines and for callers that mutate programs in place.
            ``RepairCaches(enabled=False)`` is the one uncached reference
            of the repair search.

    One instance is owned by each :class:`repro.core.pipeline.Clara` and is
    shared by every repair thread of the service.  All public methods are
    thread-safe.
    """

    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    #: Tree-edit-distance memo (annotations + pair distances) threaded into
    #: candidate generation by :func:`repro.core.repair.find_best_repair`.
    #: Created in ``__post_init__`` so its ``enabled`` flag follows the
    #: caches' — an uncached baseline also measures uncached TED.
    ted: TedCache | None = None
    #: Compiled-expression memo (closures per interned expression, see
    #: :mod:`repro.interpreter.compile`) threaded into trace execution.
    #: Created in ``__post_init__``; its ``enabled`` flag follows the
    #: caches' so uncached baselines recompile per use.
    compiled: CompileCache | None = None
    #: ILP solve memo (optimal solutions and proven-infeasible verdicts per
    #: problem as built, in the attempt's canonical names, see
    #: :mod:`repro.ilp.fastpath`) threaded into the repair selection solve.  Created in
    #: ``__post_init__``; its ``enabled`` flag follows the caches' so
    #: uncached baselines re-solve every instance.
    solve: SolveCache | None = None
    #: Nearest-cluster prefilter counters (:mod:`repro.retrieval`), filled
    #: by the pipeline's structural gate and surfaced through ``batch
    #: --profile`` and the service ``stats`` op.  Counters, not a cache:
    #: they accumulate regardless of ``enabled`` (disabling the caches
    #: must not silently disable prefilter accounting).
    retrieval: RetrievalStats | None = None
    #: Optional per-phase profiler (``repro-clara batch --profile``); when
    #: attached, parse/match/candidate-gen/TED/ILP work is timed and counted.
    profiler: PhaseProfiler | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _program_keys: MutableMapping[Program, tuple] = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )
    _traces: dict[tuple, list[Trace]] = field(default_factory=dict, init=False, repr=False)
    _correct: dict[tuple, bool] = field(default_factory=dict, init=False, repr=False)
    _matches: dict[tuple, dict[int, int] | None] = field(default_factory=dict, init=False, repr=False)
    _fingerprints: dict[tuple, Fingerprint] = field(default_factory=dict, init=False, repr=False)
    _repairs: dict[tuple, tuple] = field(default_factory=dict, init=False, repr=False)
    #: Single-flight guard: keys whose repair is currently being computed,
    #: mapped to an event concurrent duplicates wait on.
    _repair_inflight: dict[tuple, threading.Event] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Candidate-site memo: key -> (cluster, its ``expressions`` dict, pool
    #: length, cost bound, canonical candidates); see :meth:`candidate_site`.
    _sites: dict[tuple, tuple] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.ted is None:
            self.ted = TedCache(enabled=self.enabled)
        if self.compiled is None:
            self.compiled = CompileCache(enabled=self.enabled)
        if self.solve is None:
            self.solve = SolveCache(enabled=self.enabled)
        if self.retrieval is None:
            self.retrieval = RetrievalStats()

    # -- keys ------------------------------------------------------------------

    def program_key(self, program: Program) -> tuple:
        """Return ``program.structure_key()``, memoized per program object.

        Programs hash by identity; the memo is a ``WeakKeyDictionary`` so it
        never outlives the programs themselves — a long-lived engine grading
        an unbounded submission stream does not pin every parsed attempt in
        memory.  Callers that mutate a program after keying it must bypass
        the caches (see ``enabled``).
        """
        if not self.enabled:
            return program.structure_key()
        with self._lock:
            key = self._program_keys.get(program)
        if key is None:
            # Fingerprinting walks the whole program; doing it outside the
            # lock keeps other workers from serializing on it.  A racing
            # duplicate computation is benign: setdefault keeps one winner.
            key = program.structure_key()
            with self._lock:
                key = self._program_keys.setdefault(program, key)
        return key

    # -- traces and correctness -------------------------------------------------

    def traces(self, program: Program, cases: Sequence[InputCase]) -> list[Trace]:
        """Execute ``program`` on ``cases`` (Def. 3.5), memoized.

        Returns the same list object on a hit; callers must treat it as
        immutable.  Only default execution limits are supported — callers
        needing custom :class:`~repro.interpreter.executor.ExecutionLimits`
        should call :func:`repro.core.inputs.program_traces` directly.
        """
        if not self.enabled:
            with self._lock:
                self.stats.trace_misses += 1
            return self._execute(program, cases)
        key = (self.program_key(program), case_set_key(cases))
        with self._lock:
            cached = self._traces.get(key)
            if cached is not None:
                self.stats.trace_hits += 1
                return cached
            self.stats.trace_misses += 1
        traces = self._execute(program, cases)
        with self._lock:
            self._traces.setdefault(key, traces)
        return traces

    def _execute(self, program: Program, cases: Sequence[InputCase]) -> list[Trace]:
        """Run the compiled executor, attributed to the ``exec`` phase.

        All engine-routed executions funnel through here, so ``batch
        --profile`` sees execution time under ``exec`` and the number of
        location steps taken under the ``exec_steps`` counter.
        """
        with profiled(self.profiler, "exec"):
            traces = program_traces(program, cases, compile_cache=self.compiled)
        if self.profiler is not None:
            self.profiler.count("exec_steps", sum(len(trace) for trace in traces))
        return traces

    def is_correct(self, program: Program, cases: Sequence[InputCase]) -> bool:
        """Correctness predicate (§1, footnote 1) on top of cached traces.

        Equivalent to :func:`repro.core.inputs.is_correct`; on a miss it
        executes *all* cases (to populate the trace cache) instead of
        stopping at the first failure.
        """
        if not self.enabled:
            with self._lock:
                self.stats.trace_misses += 1
            # No trace cache to populate, so use the short-circuiting core
            # predicate — the pre-engine behaviour uncached baselines reproduce.
            return _is_correct_uncached(program, cases, compile_cache=self.compiled)
        key = (self.program_key(program), case_set_key(cases))
        with self._lock:
            if key in self._correct:
                self.stats.trace_hits += 1
                return self._correct[key]
        traces = self.traces(program, cases)
        verdict = all(
            trace_passes_case(trace, case) for trace, case in zip(traces, cases)
        )
        with self._lock:
            self._correct[key] = verdict
        return verdict

    def fingerprint(
        self,
        program: Program,
        cases: Sequence[InputCase],
        traces: Sequence[Trace] | None = None,
    ) -> Fingerprint:
        """Matching-invariant fingerprint of ``program`` on ``cases``, memoized.

        Used by pruned clustering (:func:`repro.core.clustering.cluster_programs`)
        to bucket programs; a duplicate correct solution is fingerprinted
        once per case set.  ``traces`` may be passed when the caller already
        executed the program (clustering does), avoiding a trace lookup.
        """
        if not self.enabled:
            if traces is None:
                traces = self.traces(program, cases)
            return program_fingerprint(program, traces)
        key = (self.program_key(program), case_set_key(cases))
        with self._lock:
            cached = self._fingerprints.get(key)
            if cached is not None:
                return cached
        if traces is None:
            traces = self.traces(program, cases)
        fingerprint = program_fingerprint(program, traces)
        with self._lock:
            fingerprint = self._fingerprints.setdefault(key, fingerprint)
        return fingerprint

    # -- structural matching ------------------------------------------------------

    def structural_match(self, query: Program, base: Program) -> dict[int, int] | None:
        """Location bijection of Def. 4.1, memoized per (query, base) pair.

        This is the single entry point used both by the pipeline's
        "any cluster with the same control flow?" gate and by the repair
        search, so each (attempt, representative) pair is matched exactly
        once.  The returned mapping is shared on hits and must not be
        mutated.
        """
        if not self.enabled:
            with self._lock:
                self.stats.match_misses += 1
            with profiled(self.profiler, "match"):
                return structural_match(query, base)
        key = (self.program_key(query), self.program_key(base))
        with self._lock:
            if key in self._matches:
                self.stats.match_hits += 1
                return self._matches[key]
            self.stats.match_misses += 1
        with profiled(self.profiler, "match"):
            result = structural_match(query, base)
        with self._lock:
            self._matches.setdefault(key, result)
        return result

    # -- whole-repair memo ---------------------------------------------------------

    def repair_outcome(
        self,
        program: Program,
        context_key: tuple,
        compute: Callable[[], tuple],
        store_if: Callable[[tuple], bool] | None = None,
    ) -> tuple:
        """Memoize the cluster-search outcome for one attempt.

        Args:
            program: The parsed incorrect attempt.
            context_key: Everything besides the program's structure that
                determines the result.  The owning pipeline passes its
                identity token (one cache may serve several pipelines), its
                clustering version, budget, feedback threshold
                and the attempt's source-position signature (line numbers
                feed into feedback, but are deliberately absent from
                ``structure_key``).
            compute: Zero-argument callable producing the value on a miss.
            store_if: Optional predicate over the computed value; when it
                returns ``False`` the value is passed through but *not*
                memoized.  The pipeline uses this to keep load-dependent
                ``timeout`` outcomes from becoming sticky for all future
                duplicates of an attempt.

        The cached value is whatever ``compute`` returns (the pipeline stores
        ``(status, repair, feedback, detail)``); duplicate attempts therefore
        share ``Repair``/``Feedback`` objects, which are treated as immutable
        after construction.

        Lookups are *single-flight*: when worker threads hit the same key
        concurrently, one computes while the rest wait for its result, so a
        burst of identical submissions costs one ILP solve rather than one
        per worker.  If the computing thread raises (or declines to store),
        a waiter takes over.
        """
        if not self.enabled:
            with self._lock:
                self.stats.repair_misses += 1
            return compute()
        key = (self.program_key(program), context_key)
        while True:
            with self._lock:
                if key in self._repairs:
                    self.stats.repair_hits += 1
                    return self._repairs[key]
                event = self._repair_inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._repair_inflight[key] = event
                    self.stats.repair_misses += 1
                    break
            # Another thread owns the computation; wait, then re-check (the
            # owner may have failed, in which case this thread takes over).
            event.wait()
        try:
            value = compute()
            if store_if is None or store_if(value):
                with self._lock:
                    self._repairs[key] = value
            return value
        finally:
            with self._lock:
                self._repair_inflight.pop(key, None)
            event.set()

    # -- candidate-site memo ---------------------------------------------------------

    def candidate_site(
        self,
        key: tuple,
        cluster: "Cluster",
        pool_size: int,
        upper_bound: float | None,
        compute: Callable[[], list["LocalRepairCandidate"]],
    ) -> list["LocalRepairCandidate"]:
        """Canonical local repair candidates of one site, memoized.

        Args:
            key: ``(id(cluster), rep_loc, rep_var, canonical var, canonical
                impl_expr, len(impl_vars))`` as built by
                :func:`repro.core.localrepair.generate_local_repairs`.
            cluster: The cluster the candidates are drawn from.
            pool_size: Current length of the cluster's pool at
                ``(rep_loc, rep_var)``.
            upper_bound: The query's branch-and-bound budget (``None`` for
                none).
            compute: Generates the candidates under ``upper_bound`` on a miss.

        An entry is *fresh* when it was stored for this very ``cluster``
        object, whose ``expressions`` dict is still the same object and
        whose pool still has ``pool_size`` entries — pools are
        append-or-replace (:meth:`Cluster.pool_index_for` uses the same
        rule), so ``add_member`` and the representative-only ablation both
        show up here.  A fresh entry generated under bound ``B`` serves any
        query with ``upper_bound <= B``, and one generated without a bound
        serves every query.  The returned list may therefore hold
        replacement candidates whose cost reaches ``upper_bound``; the
        caller drops them (costs below a TED budget are exact, so what
        remains is exactly what ``compute`` would return).  Anything else
        recomputes and replaces the entry.  Computation runs outside the
        lock; the table is cleared in bulk at :data:`MAX_CANDIDATE_SITES`.
        With caching disabled every query computes, and nothing is counted
        or stored.
        """
        if not self.enabled:
            return compute()
        with self._lock:
            entry = self._sites.get(key)
            if (
                entry is not None
                and entry[0] is cluster
                and entry[1] is cluster.expressions
                and entry[2] == pool_size
                and (
                    entry[3] is None
                    or (upper_bound is not None and upper_bound <= entry[3])
                )
            ):
                self.stats.site_hits += 1
                return entry[4]
            self.stats.site_misses += 1
        candidates = compute()
        with self._lock:
            if len(self._sites) >= MAX_CANDIDATE_SITES:
                self._sites.clear()
            self._sites[key] = (
                cluster,
                cluster.expressions,
                pool_size,
                upper_bound,
                candidates,
            )
        return candidates

    # -- maintenance ---------------------------------------------------------------

    def drop_repair_memos(self, token: object) -> int:
        """Evict memoized repair outcomes belonging to one pipeline identity.

        ``token`` is a pipeline's memo token (the first element of every
        repair ``context_key`` it stores).  Called when a pipeline is
        retired — e.g. a service hot reload replacing one generation of
        engine with the next — so a long-lived shared cache does not
        accumulate unreachable entries for pipelines that no longer exist.
        The candidate-site memo is emptied too (its entries pin their
        clusters, which a reload retires).  Returns the number of repair
        outcomes evicted.
        """
        with self._lock:
            dead = [key for key in self._repairs if key[1][0] is token]
            for key in dead:
                del self._repairs[key]
            self._sites.clear()
            return len(dead)

    def clear(self) -> None:
        """Drop all cached entries (counters are preserved)."""
        with self._lock:
            self._program_keys.clear()
            self._traces.clear()
            self._correct.clear()
            self._matches.clear()
            self._fingerprints.clear()
            self._repairs.clear()
            self._sites.clear()
        self.ted.clear()
        self.compiled.clear()
        self.solve.clear()

    def entry_counts(self) -> dict[str, int]:
        """Number of stored entries per table (for reports and debugging)."""
        with self._lock:
            counts = {
                "traces": len(self._traces),
                "correct": len(self._correct),
                "matches": len(self._matches),
                "fingerprints": len(self._fingerprints),
                "repairs": len(self._repairs),
                "candidate_sites": len(self._sites),
            }
        counts.update(self.ted.entry_counts())
        counts.update(self.compiled.entry_counts())
        counts.update(self.solve.entry_counts())
        return counts
