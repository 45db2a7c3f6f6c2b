"""Batch repair over a corpus of attempts (the engine's public face).

The paper evaluates Clara one attempt at a time; real deployments (the tool
ran on MITx/edX dumps with thousands of submissions, §6.1) need to chew
through whole corpora.  :class:`BatchRepairEngine` wraps a configured
:class:`repro.core.pipeline.Clara` and repairs many attempts through a
``concurrent.futures`` thread pool, sharing the pipeline's
:class:`repro.engine.cache.RepairCaches` between workers so that duplicate
attempts — the common case in MOOC data — are parsed, executed, matched and
repaired once.

Results are returned as a :class:`BatchReport`: per-attempt
:class:`BatchRecord` rows in submission order (independent of worker
scheduling) plus aggregate statistics — status histogram, latency
percentiles, throughput, and cache hit rates.  The report serialises to
JSONL for downstream analysis (see the ``batch`` subcommand of
:mod:`repro.cli`).

Single-attempt repair is the batch-size-1 case:
``Clara.repair_source(src)`` simply runs an engine over ``[src]``.

For multi-core corpus runs, :mod:`repro.engine.parallel` shards a batch
across worker *processes* (each wrapping this engine single-threaded) and
merges the per-shard reports back into one :class:`BatchReport`.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.pipeline import Clara, RepairOutcome

__all__ = ["BatchAttempt", "BatchRecord", "BatchReport", "BatchRepairEngine"]

#: Default number of worker threads.
DEFAULT_WORKERS = 4


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
        workers: Worker-thread count the batch ran with.
        cache_stats: Snapshot of the cache counters accumulated *during*
            this run (pre-existing counts are subtracted out).
    """

    records: list[BatchRecord]
    outcomes: list["RepairOutcome"]
    wall_time: float
    workers: int
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
        """Per-attempt latency percentile ``q`` in [0, 100], in seconds."""
        if not self.records:
            return 0.0
        latencies = sorted(record.elapsed for record in self.records)
        if len(latencies) == 1:
            return latencies[0]
        quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
        index = min(98, max(0, round(q) - 1))
        return quantiles[index]

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
            "workers": self.workers,
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
    """Repair a corpus of attempts concurrently against one pipeline.

    Args:
        clara: A configured pipeline whose clusters are already built via
            ``add_correct_sources``.  Its caches are shared across workers;
            its clusters are treated as read-only for the duration of a run.
        workers: Worker-thread count.  ``1`` runs inline on the calling
            thread (no pool), which is what ``Clara.repair_source`` uses.
        budget: Per-attempt wall-clock budget in seconds, overriding the
            pipeline's ``timeout`` when given.  Attempts exceeding it are
            reported with status ``timeout``.

    The worker pool is made of *threads sharing one pipeline*: every worker
    sees the same cluster state and the same :class:`RepairCaches`, which is
    what deduplicates MOOC-shaped corpora (and what the resident service
    relies on for warm duplicate hits).  The repair hot path is pure Python
    and releases no GIL, so threads buy cache sharing and I/O-free
    scheduling — not CPU parallelism.  To put more *cores* on a corpus, use
    :class:`repro.engine.parallel.ProcessBatchEngine` (``batch --processes
    N``): it shards the corpus across spawned worker processes, each running
    this engine single-threaded over shared-nothing caches, and merges the
    per-shard reports and counters deterministically.

    Thread safety: :meth:`run` may be called repeatedly (each call snapshots
    cache counters independently), and several engines may share one
    ``Clara``; what must not happen concurrently is mutating the pipeline's
    clusters (``add_correct_sources``/``load_clusters``) while a run is in
    flight — the service layer swaps in a whole new engine instead
    (:meth:`repro.service.service.ProblemRuntime.reload`).
    """

    def __init__(
        self,
        clara: "Clara",
        *,
        workers: int = DEFAULT_WORKERS,
        budget: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.clara = clara
        self.workers = workers
        self.budget = budget

    @classmethod
    def from_store(
        cls,
        clusters_path: str | Path,
        clara: "Clara",
        *,
        workers: int = DEFAULT_WORKERS,
        budget: float | None = None,
        lazy: bool = True,
        processes: int = 1,
    ) -> "BatchRepairEngine":
        """Build an engine from a persisted cluster store.

        Attaches ``clusters_path`` to ``clara`` (validating format version,
        case signature and language) and wraps it.  This is the "index once,
        query many" entry point: every batch worker process of a deployment
        opens the same store instead of re-clustering the correct pool on
        start-up.

        By default the store is opened **header-only** and segments page in
        on demand as attempts are repaired
        (:meth:`repro.core.pipeline.Clara.attach_lazy_clusters`); outcomes
        are identical to an eager load — skeleton-mismatched segments
        provably contain no repair candidate — and the paging counters show
        up in ``batch --profile`` output.  Pass ``lazy=False`` to read every
        segment up front (:meth:`repro.core.pipeline.Clara.load_clusters`).

        With ``processes > 1`` this returns a
        :class:`repro.engine.parallel.ProcessBatchEngine` instead: the
        corpus is sharded across that many spawned worker processes, each
        opening the store header-only with its own warm caches and
        repairing its shard single-threaded.  ``clara`` then only supplies
        configuration (language check, prefilter settings, attached
        profiler) — it is *not* attached to the store, and ``workers`` /
        ``lazy`` are ignored (each worker process is single-threaded and
        lazy by construction).  The store must name a registered problem,
        as the workers rebuild their pipelines from the dataset registry,
        and ``clara.retrieval_top_k`` must be the default (``ValueError``
        otherwise, like a language mismatch), as the workers run that.
        """
        if processes > 1:
            from ..retrieval.index import DEFAULT_TOP_K
            from .parallel import ProcessBatchEngine

            if clara.retrieval_top_k != DEFAULT_TOP_K:
                raise ValueError(
                    f"process workers run the default retrieval_top_k "
                    f"({DEFAULT_TOP_K}); the pipeline is configured for "
                    f"{clara.retrieval_top_k}"
                )
            return ProcessBatchEngine(
                clusters_path,
                processes=processes,
                budget=budget,
                profile=clara.caches.profiler is not None,
                retrieval_prefilter=clara.retrieval_prefilter,
                language=clara.language,
            )
        if lazy:
            from ..clusterstore.store import open_lazy

            clara.attach_lazy_clusters(open_lazy(clusters_path, cases=clara.cases))
        else:
            clara.load_clusters(clusters_path)
        return cls(clara, workers=workers, budget=budget)

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
        order regardless of completion order, and a batch of size 1 produces
        byte-identical results to a sequential ``repair_source`` call.

        Args:
            attempts: The corpus to repair.
            budget: Per-attempt budget for *this run only*, overriding the
                engine-wide ``budget`` when given (the service layer passes
                each request's deadline through here).
        """
        items = self._normalise(attempts)
        effective_budget = self.budget if budget is None else budget
        before = self.clara.caches.stats.snapshot()
        started = time.perf_counter()
        if self.workers == 1 or len(items) <= 1:
            outcomes = [self._repair_one(item, effective_budget) for item in items]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(
                    pool.map(lambda item: self._repair_one(item, effective_budget), items)
                )
        wall_time = time.perf_counter() - started
        after = self.clara.caches.stats.snapshot()
        return BatchReport(
            records=[
                self._record(item, outcome) for item, outcome in zip(items, outcomes)
            ],
            outcomes=outcomes,
            wall_time=wall_time,
            workers=self.workers,
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
