"""Process-parallel batch repair with deterministic counter merging.

:class:`repro.engine.batch.BatchRepairEngine` scales a corpus across
*threads*, which share one pipeline's caches but — the repair hot path
being pure Python that releases no GIL — never more than one core.
:class:`ProcessBatchEngine` is the multi-core path behind ``batch
--processes N``: it shards a corpus across N worker subprocesses on the
``serve --fleet`` stack — one :class:`~repro.fleet.supervisor.WorkerSupervisor`
per shard driving ``python -m repro.fleet.worker``, which opens the
cluster store header-only with its own warm shared-nothing
:class:`~repro.engine.cache.RepairCaches` and answers one ``repair``
request per attempt, in order.  The parent merges the responses into one
:class:`~repro.engine.batch.BatchReport` in submission order and folds
every worker's per-problem ``stats`` section by commutative sum, so
``--profile`` output is byte-stable regardless of process count.

Why the merged counters *equal* a single-process run (not merely sum to
something plausible): shards are planned by **CFG-skeleton digest**
(:func:`shard_key`).  Two attempts land on the same worker whenever their
skeletons are equal, i.e. whenever they are structurally matchable at all
(Def. 4.1) — so every trace/match/repair memo key, every structural-match
probe and every store segment a worker touches is local to the skeleton
classes it owns.  Duplicate attempts hit the same warm cache they would
have hit in one process; a segment pages in on exactly one worker, namely
the one owning its skeleton; no cache entry or match that a single
process would have shared is ever split across two processes.  Summing
per-shard counters therefore reproduces the single-process values
exactly for the sections built from class-local work: the profiler's
``phases.counters``, the trace/match/repair ``cache`` hit/miss counters,
the ``retrieval`` prefilter counters and the ``store_paging`` section
(totals asserted equal across workers, loaded counts summed).  The
expression-level TED/compile/solve memos *can* legitimately share entries
across skeleton classes (the same sub-expression appears in two shapes),
so those sections are merged by the same sum but carry no identity
guarantee — ``benchmarks/test_parallel_batch.py`` records which sections
are provably identical.

Determinism also does not depend on ``PYTHONHASHSEED``: shard planning
uses SHA-256 skeleton digests and CRC-32 of the source bytes (for
unparseable attempts) with first-appearance round-robin assignment, and
each worker repairs one request at a time, so per-shard records and
counters are reproducible run to run.

Worker death is the supervisor's business.  A worker that dies mid-shard
(crash, OOM kill) is respawned and its in-flight attempts are retried
once, so the records stay field-identical; the shard's counters then
cover its last incarnation only.  A worker that keeps dying opens the
shard's circuit breaker, and every attempt it could not answer becomes a
structured ``internal-error`` record naming the shard.  The supervisors
run without a kill watchdog or heartbeats: a batch attempt is bounded by
its budget, as in process.
"""

from __future__ import annotations

import json
import time
import zlib
from pathlib import Path
from typing import Iterable, Sequence

from ..clusterstore.segments import skeleton_digest
from ..clusterstore.store import StoreHeader, read_store_header
from ..core.profile import PhaseProfiler
from ..retrieval.index import RetrievalStats
from .batch import BatchAttempt, BatchRecord, BatchRepairEngine, BatchReport
from .cache import CacheStats

__all__ = ["ProcessBatchEngine", "shard_key", "shard_plan", "merge_store_paging"]

#: The ``stats`` sections merged by plain key-wise sum.
_SUMMED_SECTIONS = ("ted", "compile", "solve", "cache_entries")


# -- shard planning ----------------------------------------------------------------


def shard_key(source: str, *, language: str, entry: str | None) -> str:
    """Deterministic equivalence-class key for shard planning.

    Parseable attempts key on their CFG-skeleton digest — the necessary
    condition for structural matching (Def. 4.1), hence the boundary along
    which caches and store segments partition.  Unparseable attempts can
    never share cache entries beyond the parse itself, so they key on a
    CRC-32 of their bytes, which keeps byte-identical duplicates together
    (one parse failure per distinct source, same as a single process).
    Stable across processes, platforms and ``PYTHONHASHSEED``.
    """
    from ..frontend import parse_source

    try:
        program = parse_source(source, language=language, entry=entry)
    except Exception:  # noqa: BLE001 - any frontend failure → content key
        return "unparsed:%08x" % (zlib.crc32(source.encode("utf-8")) & 0xFFFFFFFF)
    return "skeleton:" + skeleton_digest(program)


def shard_plan(
    attempts: Sequence[BatchAttempt],
    processes: int,
    *,
    language: str,
    entry: str | None,
) -> list[list[int]]:
    """Partition attempt indices into ``processes`` skeleton-aligned shards.

    Every attempt of one equivalence class (equal :func:`shard_key`) lands
    on one shard; classes are dealt round-robin in first-appearance order,
    which balances class counts without consulting anything
    nondeterministic.  Some shards may be empty when there are fewer
    classes than processes.  Thread safety: pure function.
    """
    assignment: dict[str, int] = {}
    shards: list[list[int]] = [[] for _ in range(processes)]
    for index, attempt in enumerate(attempts):
        key = shard_key(attempt.source, language=language, entry=entry)
        if key not in assignment:
            assignment[key] = len(assignment) % processes
        shards[assignment[key]].append(index)
    return shards


# -- counter-section merging ---------------------------------------------------------


def merge_store_paging(sections: Iterable[dict | None]) -> dict | None:
    """Fold per-worker ``store_paging`` sections into the global view.

    Every worker opens the same store, so the ``*_total`` counters must
    agree (asserted — a mismatch means workers saw different stores, which
    would invalidate the whole merge).  The ``*_loaded`` counters sum:
    skeleton sharding pages each segment into exactly one worker, so the
    sum equals the single-process loaded count, and ``segments_skipped``
    is recomputed as total minus the merged loaded.

    Returns ``None`` when no worker reported a section (no lazy store).
    """
    reported = [section for section in sections if section]
    if not reported:
        return None
    totals = {
        (section["segments_total"], section["clusters_total"]) for section in reported
    }
    if len(totals) != 1:
        raise ValueError(
            f"workers disagree on store totals {sorted(totals)}; "
            "they cannot have opened the same store"
        )
    segments_total, clusters_total = next(iter(totals))
    segments_loaded = sum(section["segments_loaded"] for section in reported)
    return {
        "segments_total": segments_total,
        "segments_loaded": segments_loaded,
        "segments_skipped": segments_total - segments_loaded,
        "clusters_total": clusters_total,
        "clusters_loaded": sum(section["clusters_loaded"] for section in reported),
    }


def _sum_counter_dicts(sections: Iterable[dict]) -> dict:
    """Key-wise sum of flat ``{name: int}`` counter dicts (order-preserving)."""
    merged: dict = {}
    for section in sections:
        for name, value in section.items():
            merged[name] = merged.get(name, 0) + value
    return merged


# -- the engine ----------------------------------------------------------------------


class ProcessBatchEngine:
    """Shard a corpus across worker processes; merge one deterministic report.

    Built by ``BatchRepairEngine.from_store(..., processes=N)`` (the
    ``batch --processes N`` path).  Each shard is served by one
    :class:`~repro.fleet.supervisor.WorkerSupervisor` driving a
    ``python -m repro.fleet.worker`` subprocess — the same stack as ``serve
    --fleet`` — which rebuilds its pipeline from the dataset registry (the
    store header's ``problem`` name), opens the store header-only, and
    repairs its skeleton-aligned shard one request at a time.  Per-shard
    counters are therefore deterministic, which is what lets the merged
    ``--profile`` payload be committed and asserted byte-identical to a
    single-process run (see the module docstring for the argument, and
    ``results/parallel_batch.json`` for the committed evidence).

    Args:
        clusters_path: A current-format cluster store whose header names a
            registered problem (workers look it up to rebuild test cases).
        processes: Worker-process count (>= 1); also the reported
            ``BatchReport.workers``.  Shards left empty by the planner
            spawn no process.
        budget: Per-attempt wall-clock budget, sent as each repair
            request's ``deadline``.
        profile: Attach a :class:`~repro.core.profile.PhaseProfiler` in
            every worker and merge the payloads (``batch --profile``).
        retrieval_prefilter: Forwarded pipeline configuration
            (:class:`repro.core.pipeline.Clara`).
        language: When given, validated against the store header up front
            so a mismatch fails in the parent, not N times in workers.

    Differences from the in-process engine, by construction: the
    ``outcomes`` on the returned report carry status/detail/elapsed only —
    repaired programs and feedback *objects* do not cross the process
    boundary (the feedback *messages* are on the records, which is what
    the CLI and JSONL serialisation use).  Callers needing live
    ``RepairOutcome.repair`` objects want the in-process engine.

    Thread safety: one ``run`` at a time per engine instance; the workers
    it spawns share nothing with the caller.

    Raises:
        ClusterStoreError: Unreadable or non-store ``clusters_path``.
        ValueError: Store names no problem, or its language contradicts
            ``language``.
    """

    def __init__(
        self,
        clusters_path: str | Path,
        *,
        processes: int,
        budget: float | None = None,
        profile: bool = False,
        retrieval_prefilter: bool = True,
        language: str | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.clusters_path = Path(clusters_path)
        self.header: StoreHeader = read_store_header(self.clusters_path)
        if not self.header.problem:
            raise ValueError(
                f"store {self.clusters_path} names no problem; process workers "
                "rebuild their pipelines from the dataset registry and need one"
            )
        if language is not None and self.header.language != language:
            raise ValueError(
                f"store {self.clusters_path} holds {self.header.language!r} "
                f"clusters but the pipeline is configured for {language!r}"
            )
        self.processes = processes
        self.budget = budget
        self.profile = profile
        self.retrieval_prefilter = retrieval_prefilter

    # -- public API --------------------------------------------------------------

    def run(
        self,
        attempts: Iterable[str | BatchAttempt],
        *,
        budget: float | None = None,
    ) -> BatchReport:
        """Repair every attempt across the worker fleet; one merged report.

        Accepts the same corpus shapes as
        :meth:`repro.engine.batch.BatchRepairEngine.run` and returns
        records in submission order regardless of which worker finished
        first.  The merged counter sections are attached as
        ``report.profile`` (the :meth:`repro.core.pipeline.Clara.counters_payload`
        shape); ``report.cache_stats`` carries the summed trace/match/repair
        counters.
        """
        # Imported here, not at module level: the fleet imports the service
        # layer, which imports this package (the same lazy hop the core
        # takes back into the engine).
        from ..fleet.supervisor import WorkerSupervisor

        items = BatchRepairEngine._normalise(attempts)
        effective_budget = self.budget if budget is None else budget
        started = time.perf_counter()
        shards = shard_plan(
            items, self.processes, language=self.header.language, entry=self.header.entry
        )
        supervisors: dict[int, WorkerSupervisor] = {}
        futures = {}
        records: dict[int, BatchRecord] = {}
        sections: list[dict] = []
        try:
            for shard_index, member_indices in enumerate(shards):
                if not member_indices:
                    continue
                supervisor = WorkerSupervisor(
                    shard_index,
                    [self.clusters_path],
                    profile=self.profile,
                    retrieval_prefilter=self.retrieval_prefilter,
                    kill_after=None,
                    heartbeat_interval=None,
                )
                supervisors[shard_index] = supervisor
                supervisor.start()
                for index in member_indices:
                    request = {"op": "repair", "id": index, "source": items[index].source}
                    if effective_budget is not None:
                        request["deadline"] = effective_budget
                    futures[index] = supervisor.submit(
                        json.dumps(request), request_id=index
                    )
            for shard_index, supervisor in supervisors.items():
                for index in shards[shard_index]:
                    records[index] = _record(
                        items[index].attempt_id,
                        futures[index].result(),
                        shard_index,
                        effective_budget,
                    )
                # Asked only once the shard's repairs are answered, so the
                # counters come from the incarnation that finished the shard.
                stats = supervisor.submit('{"op": "stats"}', internal=True).result()
                if stats.get("ok"):
                    sections.append(stats["problems"][self.header.problem])
        finally:
            for supervisor in supervisors.values():
                supervisor.stop()
        return _report(
            [records[index] for index in range(len(items))],
            sections,
            self.processes,
            time.perf_counter() - started,
        )


def _record(
    attempt_id: str, response: dict, shard_index: int, budget: float | None
) -> BatchRecord:
    """One batch row from a worker's ``repair`` response."""
    from ..core.pipeline import RepairStatus

    if not response.get("ok"):
        error = response["error"]
        return BatchRecord(
            attempt_id=attempt_id,
            status=RepairStatus.INTERNAL_ERROR,
            elapsed=0.0,
            detail=f"shard {shard_index}: {error['code']}: {error['message']}",
        )
    return BatchRecord(
        attempt_id=attempt_id,
        status=response["status"],
        # A timeout answered by the request deadline carries no elapsed.
        elapsed=response.get("elapsed", budget or 0.0),
        detail=response["detail"],
        cost=response.get("cost"),
        relative_size=response.get("relative_size"),
        num_modified=response.get("num_modified"),
        feedback=response.get("feedback", []),
    )


def _report(
    records: list[BatchRecord], sections: list[dict], workers: int, wall_time: float
) -> BatchReport:
    """Fold the workers' per-problem ``stats`` sections into one report."""
    from ..core.pipeline import RepairOutcome

    cache_stats = CacheStats()
    profile: dict | None = None
    if sections:
        profiler = PhaseProfiler()
        retrieval = RetrievalStats()
        for section in sections:
            cache_stats = cache_stats.merge(CacheStats.from_dict(section["cache"]))
            profiler = profiler.merge(PhaseProfiler.from_dict(section["phases"]))
            retrieval = retrieval.merge(RetrievalStats.from_dict(section["retrieval"]))
        profile = {
            "phases": profiler.as_dict(),
            **{
                name: _sum_counter_dicts(section[name] for section in sections)
                for name in _SUMMED_SECTIONS
            },
            "store_paging": merge_store_paging(
                section["store_paging"] for section in sections
            ),
            "retrieval": retrieval.as_dict(),
        }
    return BatchReport(
        records=records,
        outcomes=[
            RepairOutcome(status=r.status, elapsed=r.elapsed, detail=r.detail)
            for r in records
        ],
        wall_time=wall_time,
        workers=workers,
        cache_stats=cache_stats,
        profile=profile,
    )
