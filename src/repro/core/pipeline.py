"""End-to-end Clara pipeline: parse → cluster → repair → feedback.

This module stitches the pieces together exactly as Fig. 1 of the paper
describes: correct solutions are clustered once, then each incorrect attempt
is repaired against all clusters and the minimal repair is selected.  It is
the main public entry point of the library:

    >>> clara = Clara(cases)
    >>> clara.add_correct_sources(correct_sources)
    >>> outcome = clara.repair_source(incorrect_source)
    >>> print(outcome.feedback.text())

Every ``Clara`` owns a :class:`repro.engine.cache.RepairCaches` instance
through which all correctness checks and structural matches are routed, so
repeated work — the same attempt resubmitted, the same (attempt, cluster)
pair matched by the gate check and again by the search — is computed once.
Single-attempt repair is the batch-size-1 case of
:class:`repro.engine.batch.BatchRepairEngine`; to repair a whole corpus,
hand the configured ``Clara`` to an engine instead of looping over
``repair_source``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..frontend import FrontendError, ParseError, UnsupportedFeatureError, parse_source
from ..model.program import Program
from ..retrieval import (
    DEFAULT_TOP_K,
    cluster_feature_vector,
    cluster_skeleton,
    feature_vector,
    ranked_candidates,
)
from .clustering import Cluster, ClusteringResult, cluster_programs
from .feedback import Feedback, GENERIC_FEEDBACK_THRESHOLD, generate_feedback
from .inputs import InputCase
from .profile import profiled
from .repair import Repair, find_best_repair

if TYPE_CHECKING:  # pragma: no cover - engine imports core; annotation only
    from ..engine.cache import RepairCaches

__all__ = ["RepairStatus", "RepairOutcome", "Clara"]


class RepairStatus:
    """Outcome categories, mirroring the failure analysis of §6.2."""

    REPAIRED = "repaired"
    ALREADY_CORRECT = "already-correct"
    PARSE_ERROR = "parse-error"
    UNSUPPORTED = "unsupported"
    NO_STRUCTURAL_MATCH = "no-structural-match"
    NO_REPAIR = "no-repair"
    TIMEOUT = "timeout"
    #: An unexpected exception escaped the repair of this one attempt (an
    #: interpreter or solver bug tripped by a pathological submission).
    #: The batch engine reports it as a per-attempt terminal status so one
    #: bad attempt cannot take down a whole batch or a serving worker.
    INTERNAL_ERROR = "internal-error"


@dataclass
class RepairOutcome:
    """Result of attempting to repair one incorrect attempt.

    Attributes:
        status: One of the :class:`RepairStatus` categories.
        repair: The selected minimal repair (``None`` unless repaired).
        feedback: Generated feedback (``None`` unless repaired).
        elapsed: Wall-clock seconds for the whole attempt, parse included.
        detail: Human-readable failure detail for non-repaired statuses.
    """

    status: str
    repair: Repair | None = None
    feedback: Feedback | None = None
    elapsed: float = 0.0
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.status == RepairStatus.REPAIRED


@dataclass
class Clara:
    """The clustering-and-repair tool.

    Args:
        cases: Test inputs with expected behaviour defining correctness.
        language: Source language of the attempts ("python" or "c").
        entry: Entry function name (``None`` = first function / ``main``).
        use_cluster_expressions: When ``False``, the repair algorithm only
            draws expressions from the cluster representative instead of the
            whole cluster (the ablation of §2.1's "diversity of repairs").
        generic_threshold: Cost above which feedback becomes a generic
            strategy message.
        retrieval_prefilter: At repair time, rank candidate clusters
            nearest-first by deterministic feature vector
            (:mod:`repro.retrieval`) before the Def. 4.1 structural gate,
            and cut candidates whose CFG skeleton provably precludes a
            match.  Clustering never ranks.  The exact matcher still
            decides, so outcomes are field-identical with the prefilter on
            or off (``tests/test_retrieval_differential.py``); only the
            match counters change.  The gate probes the
            :data:`~repro.retrieval.DEFAULT_TOP_K` nearest first, then the
            remaining candidates in original order (counted under
            ``retrieval.fallbacks``).  ``False`` (the ``--no-prefilter``
            escape hatch) restores the unranked scans.
        caches: Shared memoization of traces, matches and repairs
            (:class:`repro.engine.cache.RepairCaches`).  Defaults to a fresh
            enabled instance; pass ``RepairCaches(enabled=False)`` to measure
            uncached baselines.

    Thread safety: build the pipeline — ``add_correct_sources`` /
    ``attach_lazy_clusters`` — from a single thread, then repair from as
    many threads as you like: the cluster list is treated as read-only during
    repair and every mutable lookup goes through the lock-guarded caches.
    That split is exactly how :class:`repro.service.RepairService` uses it
    (one warm pipeline per problem shared by its repair threads, swapped
    whole on hot reload).
    """

    cases: Sequence[InputCase]
    language: str = "python"
    entry: str | None = None
    use_cluster_expressions: bool = True
    generic_threshold: float = GENERIC_FEEDBACK_THRESHOLD
    retrieval_prefilter: bool = True
    clusters: list[Cluster] = field(default_factory=list)
    clustering_failures: list[tuple[int, str]] = field(default_factory=list)
    caches: "RepairCaches | None" = None
    #: Incremented whenever the cluster set changes; part of the repair-memo
    #: key so cached outcomes never outlive the clustering they came from.
    _cluster_version: int = field(default=0, init=False, repr=False)
    #: Identity token distinguishing this pipeline's repair memos when one
    #: ``RepairCaches`` is shared by several ``Clara`` instances (memo keys
    #: hold a strong reference, so tokens are never confused even after a
    #: pipeline is garbage-collected).
    _memo_token: object = field(
        default_factory=object, init=False, repr=False, compare=False
    )
    #: Lazily paged cluster source installed by :meth:`attach_lazy_clusters`
    #: (``None`` = in-memory ``clusters`` list).  When set, repair consults
    #: only the store segments whose CFG-skeleton digest matches the attempt.
    _lazy_clusters: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.caches is None:
            # Imported lazily: the engine package imports core modules at
            # module level, so the core must not import it back eagerly.
            from ..engine.cache import RepairCaches

            self.caches = RepairCaches()

    # -- clustering -------------------------------------------------------------

    def parse(self, source: str) -> Program:
        """Parse one attempt into the program model."""
        return parse_source(source, language=self.language, entry=self.entry)

    def add_correct_programs(
        self,
        programs: Iterable[Program],
        *,
        source_indices: Sequence[int] | None = None,
    ) -> ClusteringResult:
        """Cluster correct programs into the existing clusters for repair.

        Each program joins the first cluster it matches, old or new, or
        starts a new one, so adding a pool in several calls gives the same
        clusters as one call over the concatenation.  Invalidates memoized
        repair outcomes (the caches key them on the clustering version),
        but keeps trace and match entries, which stay valid across cluster
        growth.

        Args:
            programs: Parsed correct programs.
            source_indices: Optional positions of ``programs`` in some
                original caller-side list; when given, failure indices in
                the returned result (and in ``clustering_failures``) are
                translated so diagnostics point at the caller's items even
                after filtering (``add_correct_sources`` passes this).
        """
        if self._lazy_clusters is not None:
            raise ValueError(
                "this pipeline serves clusters from a lazily paged store "
                "(attach_lazy_clusters); update the store and reopen instead "
                "of registering clusters in memory"
            )
        result = cluster_programs(
            programs, self.cases, caches=self.caches, clusters=self.clusters
        )
        if source_indices is not None:
            result.failures = [
                (source_indices[index], reason) for index, reason in result.failures
            ]
        self.clusters[:] = result.clusters
        self._cluster_version += 1
        if not self.use_cluster_expressions:
            for cluster in self.clusters:
                self._restrict_to_representative(cluster)
        self.clustering_failures.extend(result.failures)
        return result

    def add_correct_sources(
        self, sources: Iterable[str], *, verify: bool = True
    ) -> ClusteringResult:
        """Parse, optionally verify and cluster correct solutions.

        Attempts that fail to parse or that do not actually pass the test
        cases are skipped (MOOC dumps routinely contain mislabelled data).
        Verification runs through the trace cache, so a program that later
        shows up as an incorrect attempt is not re-executed.

        Failure indices in the returned result refer to positions in
        ``sources`` — not the post-filtering program list — so diagnostics
        name the right submission even when earlier sources were skipped.
        """
        programs: list[Program] = []
        kept_indices: list[int] = []
        for index, source in enumerate(sources):
            try:
                program = self.parse(source)
            except FrontendError:
                continue
            if verify and not self.caches.is_correct(program, self.cases):
                continue
            programs.append(program)
            kept_indices.append(index)
        return self.add_correct_programs(programs, source_indices=kept_indices)

    # -- persistence --------------------------------------------------------------

    def save_clusters(self, path: "str | Path", *, problem: str | None = None) -> "Path":
        """Write the current clusters to a versioned store file.

        The store records the case-set signature, so only a pipeline with
        the same cases can load it back (see
        :func:`repro.clusterstore.store.save_clusters`).
        """
        from ..clusterstore.store import save_clusters as _save

        return _save(
            path,
            self.clusters,
            self.cases,
            language=self.language,
            entry=self.entry,
            problem=problem,
        )

    def attach_lazy_clusters(self, source) -> int:
        """Serve clusters from a lazily paged store view instead of a list.

        ``source`` is a :class:`~repro.clusterstore.store.LazyStoredClustering`
        (from :func:`repro.clusterstore.store.open_lazy`): only the store
        header has been read, and repair pages in just the segments whose
        CFG-skeleton digest matches the attempt at hand — skeleton equality
        is necessary for a structural match (Def. 4.1), so outcomes are
        identical to trying every stored cluster, minus the I/O for
        segments no attempt ever matches.  Representatives are executed on
        this pipeline's cases at page-in time, through the shared caches,
        under the pager's lock (so concurrent repair workers each see fully
        initialized clusters).

        Mutually exclusive with the in-memory cluster list: attaching to a
        pipeline that already has clusters — or registering clusters after
        attaching — raises.  Returns the store's total cluster count (from
        the header; nothing is paged in by this call).

        Raises:
            ClusterStoreError: The store's language does not match.
            ValueError: The pipeline already has clusters registered.
        """
        from ..clusterstore.store import ClusterStoreError

        if self.clusters or self._lazy_clusters is not None:
            raise ValueError(
                "attach_lazy_clusters requires a pipeline with no clusters "
                "registered yet"
            )
        if source.language != self.language:
            raise ClusterStoreError(
                f"cluster store {source.pager.store_path} holds "
                f"{source.language!r} programs, but this pipeline repairs "
                f"{self.language!r} attempts"
            )

        def _on_load(clusters: "list[Cluster]") -> None:
            for cluster in clusters:
                cluster.representative_traces = list(
                    self.caches.traces(cluster.representative, self.cases)
                )
                if not self.use_cluster_expressions:
                    self._restrict_to_representative(cluster)

        source.pager.on_load = _on_load
        self._lazy_clusters = source
        self._cluster_version += 1
        return source.cluster_count

    def store_paging(self) -> dict | None:
        """Loaded/skipped segment counters of the attached lazy store.

        ``None`` when clusters were built in memory
        (``add_correct_sources``).  Deterministic for a given sequence of
        repairs (see
        :meth:`repro.clusterstore.segments.SegmentPager.counters`), which is
        what ``batch --profile`` and the service ``stats`` op surface.
        """
        if self._lazy_clusters is None:
            return None
        return self._lazy_clusters.paging_counters()

    def counters_payload(self) -> dict:
        """All deterministic counter sections of this pipeline, as one dict.

        The single vocabulary shared by ``batch --profile`` (which writes
        it to ``results/local/batch_profile.json``) and the
        process-parallel batch workers (which ship it over the pipe so the
        parent can merge shard payloads by commutative sum,
        :mod:`repro.engine.parallel`).  Sections: ``phases`` (the attached
        :class:`~repro.core.profile.PhaseProfiler`, empty when none),
        ``ted``/``compile``/``solve`` cache counters, ``cache_entries``,
        ``store_paging`` (``None`` unless a lazy store is attached) and
        ``retrieval``.  Everything here is deterministic for a fixed
        sequence of repairs on a single-threaded engine — timings inside
        ``phases`` are the one machine-dependent part and never leave
        ``results/local/``.
        """
        profiler = self.caches.profiler
        return {
            "phases": (
                profiler.as_dict()
                if profiler is not None
                else {"counters": {}, "timings": {}}
            ),
            "ted": self.caches.ted.counters(),
            "compile": self.caches.compiled.counters(),
            "solve": self.caches.solve.counters(),
            "cache_entries": self.caches.entry_counts(),
            "store_paging": self.store_paging(),
            "retrieval": self.caches.retrieval.as_dict(),
        }

    @staticmethod
    def _restrict_to_representative(cluster: Cluster) -> None:
        representative = cluster.representative
        restricted = {}
        for (loc_id, var), pool in cluster.expressions.items():
            rep_expr = representative.update_for(loc_id, var)
            restricted[(loc_id, var)] = [
                entry for entry in pool if entry.expr == rep_expr
            ]
        cluster.expressions = restricted
        cluster.reset_runtime_caches()

    # -- repair -------------------------------------------------------------------

    def repair_program(
        self, program: Program, *, budget: float | None = None
    ) -> RepairOutcome:
        """Repair an already-parsed incorrect attempt.

        Args:
            program: The parsed attempt.  Must not be mutated afterwards by
                the caller (its fingerprint keys the caches).
            budget: Wall-clock budget for this attempt's cluster search, in
                seconds (``None``: unbounded).  Part of the repair-memo key.

        The correctness check and the structural gate run through the shared
        caches; the cluster search itself is memoized on the attempt
        fingerprint, so a duplicate attempt skips the ILP entirely and only
        pays for parsing.
        """
        start = time.perf_counter()
        if self.caches.is_correct(program, self.cases):
            return RepairOutcome(
                status=RepairStatus.ALREADY_CORRECT,
                elapsed=time.perf_counter() - start,
            )
        if not self.cluster_count:
            return RepairOutcome(
                status=RepairStatus.NO_REPAIR,
                detail="no clusters available",
                elapsed=time.perf_counter() - start,
            )
        # In lazy mode this pages in only the segments whose skeleton digest
        # matches the attempt; every skipped cluster is provably unmatchable,
        # so the gate below and the search see the same effective candidate
        # set as when every stored cluster is tried.
        candidates = self._candidate_clusters(program)
        gate_order, candidates, ranked, skeleton_skipped = self._prefilter_candidates(
            program, candidates
        )
        matched = False
        attempted = 0
        for cluster in gate_order:
            attempted += 1
            if self.caches.structural_match(program, cluster.representative) is not None:
                matched = True
                break
        if ranked:
            self.caches.retrieval.record(
                ranked=len(gate_order),
                attempted=attempted,
                skipped=skeleton_skipped + (len(gate_order) - attempted),
                # The match sat beyond the top-k head: the exact-fallback
                # tail caught it, exactly as the soundness argument requires.
                fallbacks=1 if matched and attempted > DEFAULT_TOP_K else 0,
            )
        if not matched:
            return RepairOutcome(
                status=RepairStatus.NO_STRUCTURAL_MATCH,
                detail="no correct solution with the same control flow",
                elapsed=time.perf_counter() - start,
            )
        context_key = (
            self._memo_token,
            self._cluster_version,
            budget,
            self.generic_threshold,
            # Line numbers and location names flow into feedback text but are
            # not part of structure_key, so structurally identical attempts
            # with shifted source positions must not share a memo entry.
            self._position_key(program),
        )
        status, repair, feedback, detail = self.caches.repair_outcome(
            program,
            context_key,
            lambda: self._search_clusters(program, candidates, budget),
            # A timeout reflects machine load at that moment, not a property
            # of the attempt; memoizing it would make one slow moment sticky
            # for every future duplicate.
            store_if=lambda value: value[0] != RepairStatus.TIMEOUT,
        )
        return RepairOutcome(
            status=status,
            repair=repair,
            feedback=feedback,
            detail=detail,
            elapsed=time.perf_counter() - start,
        )

    @staticmethod
    def _position_key(program: Program) -> tuple:
        """Source-position signature: (loc_id, line, name) per location."""
        return tuple(
            (loc_id, program.locations[loc_id].line, program.locations[loc_id].name)
            for loc_id in program.location_ids()
        )

    def _candidate_clusters(self, program: Program) -> "Sequence[Cluster]":
        """The clusters that could possibly repair ``program``.

        An in-memory pipeline returns the full list; lazy mode pages in
        only the skeleton-matching (and unfingerprinted) segments of the
        attached store — a sound pruning, since a differing canonical CFG
        skeleton precludes the structural match every repair needs.
        """
        if self._lazy_clusters is None:
            return self.clusters
        return self._lazy_clusters.clusters_for_program(program)

    def _prefilter_candidates(
        self, program: Program, candidates: "Sequence[Cluster]"
    ) -> "tuple[Sequence[Cluster], Sequence[Cluster], bool, int]":
        """Apply the nearest-cluster prefilter to the repair candidate set.

        Returns ``(gate_order, search_candidates, ranked, skeleton_skipped)``:
        the order in which the structural gate should probe candidates, the
        set the cluster search may draw repairs from, whether the prefilter
        actually ranked (counters are only recorded when it did), and how
        many candidates the CFG-skeleton cut removed.

        Soundness: the skeleton cut only drops clusters that provably fail
        the Def. 4.1 test (skeleton equality is necessary for a structural
        match — the same argument the lazy pager's segment pruning rests
        on), and the ranking is a permutation that keeps every surviving
        candidate, so both the gate verdict and the search's candidate pool
        are unchanged — repairs stay field-identical.

        Degrade path: a lazily attached store whose header lacks usable
        vectors for some candidate (built before retrieval existed, or with
        a foreign feature version) silently disables the prefilter for this
        repair and counts one ``fallbacks`` tick.
        """
        if not self.retrieval_prefilter or not candidates:
            return candidates, candidates, False, 0
        if self._lazy_clusters is not None:
            # Candidates are already skeleton-cut by the pager; rank them
            # strictly from the header's persisted vectors (no recompute).
            vectors = self._lazy_clusters.retrieval_vectors()
            if any(cluster.cluster_id not in vectors for cluster in candidates):
                self.caches.retrieval.record(fallbacks=1)
                return candidates, candidates, False, 0
            survivors: "Sequence[Cluster]" = candidates
            skipped = 0

            def vector_of(cluster: Cluster) -> tuple[int, ...]:
                return vectors[cluster.cluster_id]

        else:
            skeleton = program.cfg_skeleton()[1]
            survivors = [
                cluster
                for cluster in candidates
                if cluster_skeleton(cluster) == skeleton
            ]
            skipped = len(candidates) - len(survivors)
            vector_of = cluster_feature_vector
        gate_order = ranked_candidates(
            feature_vector(program),
            survivors,
            vector_of,
            top_k=DEFAULT_TOP_K,
        )
        return gate_order, survivors, True, skipped

    def _search_clusters(
        self,
        program: Program,
        clusters: "Sequence[Cluster]",
        timeout: float | None,
    ) -> tuple[str, Repair | None, Feedback | None, str]:
        """Run the cluster search and package the memoizable outcome."""
        started = time.perf_counter()
        repair = find_best_repair(
            program,
            clusters,
            timeout=timeout,
            caches=self.caches,
        )
        search_elapsed = time.perf_counter() - started
        if repair is None:
            status = (
                RepairStatus.TIMEOUT
                if timeout is not None and search_elapsed >= timeout
                else RepairStatus.NO_REPAIR
            )
            return (status, None, None, "")
        feedback = generate_feedback(
            repair, program, generic_threshold=self.generic_threshold
        )
        return (RepairStatus.REPAIRED, repair, feedback, "")

    def repair_source(self, source: str, *, budget: float | None = None) -> RepairOutcome:
        """Parse and repair one incorrect attempt from source text.

        Single-attempt repair is the batch-size-1 case of the engine: this
        delegates to :class:`repro.engine.batch.BatchRepairEngine`, so it
        shares the exact code path (budgets, caching, accounting) that
        corpus runs use.
        """
        from ..engine.batch import BatchRepairEngine

        return BatchRepairEngine(self).run([source], budget=budget).outcomes[0]

    def _repair_attempt(
        self, source: str, *, budget: float | None = None
    ) -> RepairOutcome:
        """Parse-and-repair primitive invoked by the batch engine.

        ``elapsed`` on the returned outcome covers the whole attempt — parse
        time included — measured with a single start timestamp.
        """
        start = time.perf_counter()
        try:
            with profiled(self.caches.profiler, "parse"):
                program = self.parse(source)
        except UnsupportedFeatureError as exc:
            return RepairOutcome(
                status=RepairStatus.UNSUPPORTED,
                detail=str(exc),
                elapsed=time.perf_counter() - start,
            )
        except ParseError as exc:
            return RepairOutcome(
                status=RepairStatus.PARSE_ERROR,
                detail=str(exc),
                elapsed=time.perf_counter() - start,
            )
        outcome = self.repair_program(program, budget=budget)
        outcome.elapsed = time.perf_counter() - start
        return outcome

    # -- introspection -----------------------------------------------------------

    def forget_repair_memos(self) -> int:
        """Evict this pipeline's memoized repair outcomes from the caches.

        Call when retiring a pipeline whose ``RepairCaches`` lives on (a
        service hot reload hands the shared caches to a successor): entries
        keyed on this pipeline's identity would otherwise stay unreachable
        in the cache forever.  Returns the number of entries evicted.
        """
        return self.caches.drop_repair_memos(self._memo_token)

    @property
    def cluster_count(self) -> int:
        """Total clusters — from the store header in lazy mode (no paging)."""
        if self._lazy_clusters is not None:
            return self._lazy_clusters.cluster_count
        return len(self.clusters)

    def cluster_sizes(self) -> list[int]:
        """Member counts per cluster, largest first.

        In lazy mode this pages in **every** segment of the attached store —
        it is an introspection helper, not a serving-path call.
        """
        if self._lazy_clusters is not None:
            return sorted(
                (cluster.size for cluster in self._lazy_clusters.all_clusters()),
                reverse=True,
            )
        return sorted((cluster.size for cluster in self.clusters), reverse=True)
