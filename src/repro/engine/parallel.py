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
every worker's per-problem ``stats`` section by plain sums —
:func:`~repro.core.profile.merge_phases` for ``phases``,
:func:`~repro.core.profile.sum_counters` for every flat counter section
(the ``cache`` section then rebuilds its hit rates through
:meth:`~repro.engine.cache.CacheStats.from_dict`) and
:func:`merge_store_paging` for ``store_paging`` — so ``--profile`` output
is byte-stable for a given process count.

What the merged counters equal: :func:`shard_plan` deals each distinct
source text to the next shard in turn, and a byte-identical repeat
follows its first copy, so a resubmission still hits the repair memo on
its own worker.  Each worker repairs its shard in order, one request at a
time, with fresh caches, so the merged sections equal the key-wise sum of
in-process runs, one per shard, each over that shard's attempts in shard
order (store totals are kept, :func:`merge_store_paging`).  At one
process that is the single-process run; at more, work that one process
would have shared across shards (a match, a candidate site, a solved
ILP, a store segment) is paid once per worker.  Nothing depends on
``PYTHONHASHSEED``: the plan reads only the attempts' order and text.

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
from pathlib import Path
from typing import Iterable, Sequence

from ..core.inputs import InputCase
from ..core.profile import merge_phases, sum_counters
from .batch import BatchAttempt, BatchRecord, BatchRepairEngine, BatchReport
from .cache import CacheStats

__all__ = ["ProcessBatchEngine", "shard_plan", "merge_store_paging"]

#: The ``stats`` sections merged by plain key-wise sum.
_SUMMED_SECTIONS = ("ted", "compile", "solve", "cache_entries")


# -- shard planning ----------------------------------------------------------------


def shard_plan(attempts: Sequence[BatchAttempt], processes: int) -> list[list[int]]:
    """Deal attempt indices onto ``processes`` shards by distinct source text.

    The first copy of each distinct source goes to the next shard in turn;
    a byte-identical repeat lands on its first copy's shard.  Shards may be
    empty when there are fewer distinct sources than processes.  Thread
    safety: pure function.
    """
    assignment: dict[str, int] = {}
    shards: list[list[int]] = [[] for _ in range(processes)]
    for index, attempt in enumerate(attempts):
        if attempt.source not in assignment:
            assignment[attempt.source] = len(assignment) % processes
        shards[assignment[attempt.source]].append(index)
    return shards


# -- counter-section merging ---------------------------------------------------------


def merge_store_paging(sections: Iterable[dict | None]) -> dict | None:
    """Fold per-worker ``store_paging`` sections into one section.

    Every worker opens the same store, so the ``*_total`` counters must
    agree (asserted — a mismatch means workers saw different stores, which
    would invalidate the whole merge).  The loaded and skipped counters are
    summed: two workers that page in the same segment each count it.

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
    return {
        "segments_total": segments_total,
        "segments_loaded": sum(section["segments_loaded"] for section in reported),
        "segments_skipped": sum(section["segments_skipped"] for section in reported),
        "clusters_total": clusters_total,
        "clusters_loaded": sum(section["clusters_loaded"] for section in reported),
    }


# -- the engine ----------------------------------------------------------------------


class ProcessBatchEngine:
    """Shard a corpus across worker processes; merge one deterministic report.

    Built by ``BatchRepairEngine.from_store(..., processes=N)`` (the
    ``batch --processes N`` path).  Each shard is served by one
    :class:`~repro.fleet.supervisor.WorkerSupervisor` driving a
    ``python -m repro.fleet.worker`` subprocess — the same stack as ``serve
    --fleet`` — which rebuilds its pipeline from the dataset registry (the
    store header's ``problem`` name), opens the store header-only, and
    repairs its shard (:func:`shard_plan`) one request at a time.  Per-shard
    counters are therefore deterministic, which is what lets the merged
    ``--profile`` payload be committed and asserted equal to one
    in-process run per shard, summed (see the module docstring, and
    ``results/parallel_batch.json`` for the committed evidence).

    Args:
        clusters_path: A current-format cluster store whose header names a
            registered problem (workers look it up to rebuild test cases).
        processes: Worker-process count (>= 1); also the reported
            ``BatchReport.workers``.  Shards left empty by the planner
            spawn no process.
        profile: Attach a :class:`~repro.core.profile.PhaseProfiler` in
            every worker and merge the payloads (``batch --profile``).
        retrieval_prefilter: Forwarded pipeline configuration
            (:class:`repro.core.pipeline.Clara`).
        language: When given, validated against the store header up front
            so a mismatch fails in the parent, not N times in workers.
        cases: When given, the store must have been built for them.

    Differences from the in-process engine, by construction: the
    ``outcomes`` on the returned report carry status/detail/elapsed only —
    repaired programs and feedback *objects* do not cross the process
    boundary (the feedback *messages* are on the records, which is what
    the CLI and JSONL serialisation use).  Callers needing live
    ``RepairOutcome.repair`` objects want the in-process engine.

    Thread safety: one ``run`` at a time per engine instance; the workers
    it spawns share nothing with the caller.

    Raises:
        ClusterStoreError: Unreadable, stale or non-store ``clusters_path``,
            or one built for other test cases than its problem's or than
            ``cases``.
        KeyError: The store names an unregistered problem.
        ValueError: Store names no problem, or its language contradicts
            ``language``.
    """

    def __init__(
        self,
        clusters_path: str | Path,
        *,
        processes: int,
        profile: bool = False,
        retrieval_prefilter: bool = True,
        language: str | None = None,
        cases: Sequence[InputCase] | None = None,
    ) -> None:
        # Imported here, not at module level: the service layer imports this
        # package (the same lazy hop the core takes back into the engine).
        from ..service.service import open_served_store

        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.clusters_path = Path(clusters_path)
        # The workers serve the store, so it passes the service's check here,
        # once, instead of failing in every worker.
        self.header = open_served_store(self.clusters_path, {}, cases=cases).header
        if language is not None and self.header.language != language:
            raise ValueError(
                f"store {self.clusters_path} holds {self.header.language!r} "
                f"clusters but the pipeline is configured for {language!r}"
            )
        self.processes = processes
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

        ``budget`` (seconds, ``None``: unbounded) is sent as each repair
        request's ``deadline``, which a worker uses as exactly this
        per-attempt budget of the cluster search, as in process.
        """
        # Imported here for the reason given in __init__.
        from ..fleet.supervisor import WorkerSupervisor

        items = BatchRepairEngine._normalise(attempts)
        started = time.perf_counter()
        shards = shard_plan(items, self.processes)
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
                    if budget is not None:
                        request["deadline"] = budget
                    futures[index] = supervisor.submit(
                        json.dumps(request), request_id=index
                    )
            for shard_index, supervisor in supervisors.items():
                for index in shards[shard_index]:
                    records[index] = _record(
                        items[index].attempt_id, futures[index].result(), shard_index
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


def _record(attempt_id: str, response: dict, shard_index: int) -> BatchRecord:
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
        elapsed=response["elapsed"],
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

    profile: dict | None = None
    if sections:
        profile = {
            "phases": merge_phases(section["phases"] for section in sections),
            **{
                name: sum_counters(section[name] for section in sections)
                for name in _SUMMED_SECTIONS
            },
            "store_paging": merge_store_paging(
                section["store_paging"] for section in sections
            ),
            "retrieval": sum_counters(section["retrieval"] for section in sections),
        }
    return BatchReport(
        records=records,
        outcomes=[
            RepairOutcome(status=r.status, elapsed=r.elapsed, detail=r.detail)
            for r in records
        ],
        wall_time=wall_time,
        workers=workers,
        cache_stats=CacheStats.from_dict(
            sum_counters(section["cache"] for section in sections)
        ),
        profile=profile,
    )
