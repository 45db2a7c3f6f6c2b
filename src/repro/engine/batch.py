"""Batch repair over a corpus of attempts (the engine's public face).

The paper evaluates Clara one attempt at a time; real deployments (the tool
ran on MITx/edX dumps with thousands of submissions, §6.1) need to chew
through whole corpora.  :class:`BatchRepairEngine` wraps a configured
:class:`repro.core.pipeline.Clara` and repairs many attempts on the calling
thread through the pipeline's :class:`repro.engine.cache.RepairCaches`, so
that duplicate attempts — the common case in MOOC data — are parsed,
executed, matched and repaired once.

Results are returned as a :class:`BatchReport`: per-attempt
:class:`BatchRecord` rows in submission order plus aggregate statistics —
status histogram, latency percentiles, throughput, and cache hit rates.
The report serialises to JSONL for downstream analysis (see the ``batch``
subcommand of :mod:`repro.cli`).

Single-attempt repair is the batch-size-1 case:
``Clara.repair_source(src)`` simply runs an engine over ``[src]``.

For multi-core corpus runs, :mod:`repro.engine.parallel` shards a batch
across worker *processes* (each wrapping this engine) and merges the
per-shard reports back into one :class:`BatchReport`.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.pipeline import Clara, RepairOutcome

__all__ = ["BatchAttempt", "BatchRecord", "BatchReport", "BatchRepairEngine"]


@dataclass(frozen=True)
class BatchAttempt:
    """One submission in a batch: an identifier plus its source text."""

    attempt_id: str
    source: str


@dataclass
class BatchRecord:
    """Per-attempt row of a :class:`BatchReport`.

    Mirrors the fields of :class:`repro.core.pipeline.RepairOutcome` plus the
    repair metrics the evaluation tables report (cost, relative size —
    Fig. 6 —, number of modified expressions — Fig. 7).
    """

    attempt_id: str
    status: str
    elapsed: float
    detail: str = ""
    cost: float | None = None
    relative_size: float | None = None
    num_modified: int | None = None
    feedback: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        """Plain-dict form, one JSONL line of the batch report."""
        return {
            "attempt_id": self.attempt_id,
            "status": self.status,
            "elapsed": round(self.elapsed, 6),
            "detail": self.detail,
            "cost": self.cost,
            "relative_size": self.relative_size,
            "num_modified": self.num_modified,
            "feedback": self.feedback,
        }


@dataclass
class BatchReport:
    """Outcome of one batch run.

    Attributes:
        records: One row per attempt, in submission order.
        outcomes: The underlying pipeline outcomes, parallel to ``records``
            (kept for callers that need the repaired programs or feedback
            objects; they are omitted from the JSONL serialisation).
        wall_time: End-to-end wall-clock duration of the run, in seconds.
        cache_stats: Snapshot of the cache counters accumulated *during*
            this run (pre-existing counts are subtracted out).
    """

    records: list[BatchRecord]
    outcomes: list["RepairOutcome"]
    wall_time: float
    cache_stats: CacheStats
    #: Merged per-phase/cache/retrieval/paging counter sections attached by
    #: :class:`repro.engine.parallel.ProcessBatchEngine` (the same shape
    #: :meth:`repro.core.pipeline.Clara.counters_payload` produces);
    #: ``None`` for in-process runs, where the CLI reads the sections off
    #: the live pipeline instead.  Not part of the JSONL serialisation.
    profile: dict | None = None

    # -- aggregates -------------------------------------------------------------

    def status_histogram(self) -> dict[str, int]:
        """Attempt count per terminal status, sorted by frequency."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def latency_percentile(self, q: float) -> float:
        """Per-attempt latency percentile ``q`` in [0, 100], in seconds.

        ``q`` is rounded to a whole percentile; 0 gives the fastest attempt
        and 100 the slowest.
        """
        if not self.records:
            return 0.0
        latencies = sorted(record.elapsed for record in self.records)
        if len(latencies) == 1:
            return latencies[0]
        quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
        points = [latencies[0], *quantiles, latencies[-1]]
        return points[min(100, max(0, round(q)))]

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95)

    @property
    def attempts_per_second(self) -> float:
        """Throughput of the whole run (0 when the run was instantaneous)."""
        if self.wall_time <= 0:
            return 0.0
        return len(self.records) / self.wall_time

    def summary(self) -> dict:
        """Aggregate statistics as a plain dict (the JSONL trailer line)."""
        return {
            "attempts": len(self.records),
            "wall_time": round(self.wall_time, 6),
            "attempts_per_second": round(self.attempts_per_second, 3),
            "p50_latency": round(self.p50_latency, 6),
            "p95_latency": round(self.p95_latency, 6),
            "status_histogram": self.status_histogram(),
            "cache": self.cache_stats.as_dict(),
        }

    # -- serialisation ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON line per attempt followed by a ``{"summary": ...}`` line."""
        lines = [json.dumps(record.to_json()) for record in self.records]
        lines.append(json.dumps({"summary": self.summary()}))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str | Path) -> Path:
        """Write :meth:`to_jsonl` to ``path`` (UTF-8) and return it.

        The encoding is explicit: report fields (attempt ids, failure
        details, feedback) may carry non-ASCII text from student sources,
        and a platform-default-encoded report would not round-trip on
        machines whose locale is not UTF-8.
        """
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path


class BatchRepairEngine:
    """Repair a corpus of attempts, one after another, against one pipeline.

    Args:
        clara: A configured pipeline whose clusters are already built via
            ``add_correct_sources``.  Its caches deduplicate the corpus;
            its clusters are treated as read-only for the duration of a run.

    Every attempt is repaired on the calling thread: the repair hot path
    is pure Python and holds the GIL, so worker threads would buy no
    throughput.  To put more *cores* on a corpus, use
    :class:`repro.engine.parallel.ProcessBatchEngine` (``batch --processes
    N``), which shards the corpus across worker processes and merges the
    per-shard reports and counters deterministically.

    Thread safety: :meth:`run` may be called repeatedly (each call snapshots
    cache counters independently), and several engines may share one
    ``Clara`` from several threads, as the service's repair pool does;
    what must not happen concurrently is mutating the pipeline's clusters
    (``add_correct_sources``/``attach_lazy_clusters``) while a run is in
    flight — the service layer swaps in a whole new engine instead
    (:meth:`repro.service.service.ProblemRuntime.reload`).
    """

    def __init__(self, clara: "Clara") -> None:
        self.clara = clara

    @classmethod
    def from_store(
        cls,
        clusters_path: str | Path,
        clara: "Clara",
        *,
        workers: int = 1,  # only perfbench/bench.py passes it; goes with the next benchmark change
        processes: int = 1,
    ) -> "BatchRepairEngine":
        """Build an engine from a persisted cluster store.

        Attaches ``clusters_path`` to ``clara`` (validating format version,
        case signature and language) and wraps it.  This is the "index once,
        query many" entry point: every batch worker process of a deployment
        opens the same store instead of re-clustering the correct pool on
        start-up.

        The store is opened **header-only** and segments page in on demand
        as attempts are repaired
        (:meth:`repro.core.pipeline.Clara.attach_lazy_clusters`); outcomes
        are identical to trying every stored cluster — skeleton-mismatched
        segments provably contain no repair candidate — and the paging
        counters show up in ``batch --profile`` output.

        With ``processes > 1`` this returns a
        :class:`repro.engine.parallel.ProcessBatchEngine` instead: the
        corpus is sharded across that many spawned worker processes, each
        opening the store header-only with its own warm caches and
        repairing its shard single-threaded.  ``clara`` then only supplies
        configuration (language and case checks, prefilter settings,
        attached profiler) — it is *not* attached to the store.  The store
        must name a registered problem, as the workers rebuild their
        pipelines from the dataset registry.

        ``workers`` accepts only ``1``; other values raise ``ValueError``.
        """
        if workers != 1:
            raise ValueError(
                f"the batch engine repairs on the calling thread, got workers={workers}; "
                "use processes= for more cores or RepairService(workers=) for threads"
            )
        if processes > 1:
            from .parallel import ProcessBatchEngine

            return ProcessBatchEngine(
                clusters_path,
                processes=processes,
                profile=clara.caches.profiler is not None,
                retrieval_prefilter=clara.retrieval_prefilter,
                language=clara.language,
                cases=clara.cases,
            )
        from ..clusterstore.store import open_lazy

        clara.attach_lazy_clusters(open_lazy(clusters_path, cases=clara.cases))
        return cls(clara)

    # -- public API --------------------------------------------------------------

    def run(
        self,
        attempts: Iterable[str | BatchAttempt],
        *,
        budget: float | None = None,
    ) -> BatchReport:
        """Repair every attempt and return the aggregated report.

        Accepts raw source strings (auto-numbered ``attempt-0``, ...) or
        :class:`BatchAttempt` objects.  Records are returned in submission
        order, and a batch of size 1 produces
        byte-identical results to a ``repair_source`` call.

        Args:
            attempts: The corpus to repair.
            budget: Wall-clock budget of each attempt's cluster search, in
                seconds (``None``: unbounded).  Attempts that exceed it are
                reported with status ``timeout``.  The service passes each
                request's deadline through here.
        """
        items = self._normalise(attempts)
        before = self.clara.caches.stats.snapshot()
        started = time.perf_counter()
        outcomes = [self._repair_one(item, budget) for item in items]
        wall_time = time.perf_counter() - started
        after = self.clara.caches.stats.snapshot()
        return BatchReport(
            records=[
                self._record(item, outcome) for item, outcome in zip(items, outcomes)
            ],
            outcomes=outcomes,
            wall_time=wall_time,
            cache_stats=after.diff(before),
        )

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _normalise(attempts: Iterable[str | BatchAttempt]) -> list[BatchAttempt]:
        items: list[BatchAttempt] = []
        for index, attempt in enumerate(attempts):
            if isinstance(attempt, BatchAttempt):
                items.append(attempt)
            else:
                items.append(BatchAttempt(attempt_id=f"attempt-{index}", source=attempt))
        return items

    def _repair_one(self, item: BatchAttempt, budget: float | None) -> "RepairOutcome":
        started = time.perf_counter()
        try:
            return self.clara._repair_attempt(item.source, budget=budget)
        except Exception as exc:  # noqa: BLE001 - crash isolation per attempt
            # Store-staleness must keep propagating: the service layer
            # transparently re-runs those on the current store generation.
            from ..clusterstore.store import ClusterStoreError
            from ..core.pipeline import RepairOutcome, RepairStatus

            if isinstance(exc, ClusterStoreError):
                raise
            return RepairOutcome(
                status=RepairStatus.INTERNAL_ERROR,
                detail=f"{type(exc).__name__}: {exc}",
                elapsed=time.perf_counter() - started,
            )

    @staticmethod
    def _record(item: BatchAttempt, outcome: "RepairOutcome") -> BatchRecord:
        record = BatchRecord(
            attempt_id=item.attempt_id,
            status=outcome.status,
            elapsed=outcome.elapsed,
            detail=outcome.detail,
        )
        if outcome.repair is not None:
            record.cost = outcome.repair.cost
            record.relative_size = outcome.repair.relative_size()
            record.num_modified = outcome.repair.num_modified_expressions
        if outcome.feedback is not None:
            record.feedback = [entry.message for entry in outcome.feedback.items]
        return record
