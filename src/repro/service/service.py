"""The resident repair service: warm per-problem engines behind asyncio.

A :class:`RepairService` is the transport-independent core of the daemon:
it owns one :class:`ProblemRuntime` per hosted problem — a configured
:class:`~repro.core.pipeline.Clara`, its
:class:`~repro.engine.cache.RepairCaches` and a
:class:`~repro.engine.batch.BatchRepairEngine` — and turns protocol
:class:`~repro.service.protocol.Request` objects into response dicts.
:meth:`RepairService.answer_line` answers any request on the calling
thread (a fleet worker's reading loop); the TCP front end
(:mod:`repro.service.server`) is a thin line-pump over the async
:meth:`RepairService.handle_line`; tests drive the service directly.

Concurrency model.  :meth:`~RepairService.answer` repairs inline, with
the request's deadline as the engine's per-attempt ``budget`` (bounding
the cluster search).  The asyncio handler dispatches repairs to a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` and awaits the result.
Admission control is a counter: at most ``queue_size`` repairs may be in
flight (queued or running); the next one is rejected immediately with an
``overloaded`` error rather than building an unbounded backlog.  There the
deadline also bounds the wait, with ``asyncio.wait_for`` (bounding parse
and solver overruns); whichever trips first yields a ``timeout`` status.
A deadline that fires cannot interrupt the worker thread mid-repair — the
thread finishes and its slot frees then — so ``queue_size`` should exceed
``workers`` by the burst you want to absorb, not by orders of magnitude.

Hot reload.  :meth:`RepairService.reload` re-reads a problem's store
header from disk and atomically swaps in a fresh pipeline *sharing the old
RepairCaches* — trace, TED and match memos stay warm (they are keyed on
program structure, not on the clustering), while repair memos
self-invalidate via the new pipeline's identity token.  Requests admitted
before the swap keep the engine object they snapshotted, so in-flight work
is never dropped and every response reports the store revision it was
actually computed against.

Segment paging.  Stores are the indexed v3 format (``docs/STORAGE.md``):
``add_problem`` and ``reload`` read only the header, and each repair pages
in just the segments whose CFG-skeleton digest matches the attempt — cold
start and reload cost are proportional to the header, not the store.  The
per-problem loaded/skipped counters appear under ``store_paging`` in the
``stats`` op.  If an updater rewrites a segment *after* the serving header
was read, a repair that pages it in gets a deterministic "store changed on
disk" error (the header index records each segment's byte length); the
service then transparently re-runs the repair on the current generation —
so a request admitted just before a ``reload`` completes on the reloaded
engine instead of failing — and only when no newer generation exists does
the client see a structured ``stale-store`` error telling the operator to
``reload``.  Already-paged segments are cached and never re-read.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from ..clusterstore.store import ClusterStoreError, LazyStoredClustering, case_signature
from ..clusterstore.store import open_lazy
from ..core.inputs import InputCase
from ..core.pipeline import Clara
from ..core.profile import PhaseProfiler
from ..engine.batch import BatchAttempt, BatchRepairEngine
from ..engine.cache import RepairCaches
from .protocol import PROTOCOL_VERSION, ProtocolError, Request, error_payload
from .protocol import parse_request_line, resolve_problem, response_payload, timeout_payload

__all__ = ["ProblemRuntime", "RepairService", "ServiceStats", "open_served_store"]

#: Default bound on concurrently admitted repair requests.
DEFAULT_QUEUE_SIZE = 64
#: Default repair worker threads.
DEFAULT_WORKERS = 4


def open_served_store(
    store_path: str | Path,
    served: Mapping[str, Path],
    *,
    cases: Sequence[InputCase] | None = None,
) -> LazyStoredClustering:
    """Open a store header-only for serving: the one store check.

    :meth:`RepairService.add_problem`, the fleet router and ``batch
    --processes`` all call it.  ``served`` maps the problems already
    served to their stores; ``batch`` also passes its pipeline's
    ``cases``, checked as an in-process batch checks them.  Raises what
    :meth:`RepairService.add_problem` documents.
    """
    from ..datasets import get_problem

    stored = open_lazy(store_path, cases=cases)
    name = stored.problem
    if name is None:
        raise ValueError(
            f"cluster store {store_path} records no problem name; rebuild it "
            f"with 'repro-clara cluster build --problem <name>'"
        )
    if name in served:
        raise ValueError(
            f"problem {name!r} is already served (from {served[name]}); "
            f"refusing to silently replace it with {store_path}"
        )
    spec = get_problem(name)
    # Checked here, not by open_lazy, because the cases are only known once
    # the store has named its problem.
    if stored.case_signature != case_signature(spec.cases):
        raise ClusterStoreError(
            f"cluster store {store_path} was built against a different "
            f"test-case set than problem {name!r} uses; rebuild it with "
            f"'repro-clara cluster build'"
        )
    return stored


@dataclass(frozen=True)
class _ProblemState:
    """One immutable (revision, engine) pair; swapped whole on reload."""

    revision: int
    engine: BatchRepairEngine


class ProblemRuntime:
    """Warm serving state for one problem.

    Holds the shared caches and the current :class:`_ProblemState`.  The
    state is replaced atomically by :meth:`reload`; request handlers call
    :meth:`snapshot` once at admission and use that state for the whole
    request, which is what keeps in-flight work on the old revision.

    Thread safety: :meth:`snapshot` and :meth:`reload` may be called from
    any thread (reloads are serialised by a lock; the snapshot read is a
    single attribute load, atomic under the GIL).
    """

    def __init__(self, name: str, store_path: Path, state: _ProblemState) -> None:
        clara = state.engine.clara
        self.name = name
        self.store_path = store_path
        self.cases = clara.cases
        self.language = clara.language
        self.entry = clara.entry
        self.caches = clara.caches
        self._state = state
        self._reload_lock = threading.Lock()

    def snapshot(self) -> _ProblemState:
        """The current (revision, engine) pair; stable for one request."""
        return self._state

    @property
    def revision(self) -> int:
        return self._state.revision

    def reload(self) -> tuple[int, int]:
        """Re-read the store from disk and swap in a fresh engine.

        The new pipeline shares this runtime's ``RepairCaches`` (structure-
        keyed memos stay warm; repair memos are invalidated by the pipeline
        identity token).  Returns ``(old_revision, new_revision)``.

        Raises:
            ClusterStoreError: The file on disk is missing, stale or built
                for different cases; the old state keeps serving.
        """
        with self._reload_lock:
            old = self._state
            # One header read: the revision reported by responses is taken
            # from the same header whose segment index the new pipeline
            # pages through, so a save racing this reload can never produce
            # a mismatched pair — a segment rewritten after this read fails
            # the index byte-length check instead of being served.
            source = open_lazy(self.store_path, cases=self.cases)
            clara = Clara(
                cases=self.cases,
                language=self.language,
                entry=self.entry,
                retrieval_prefilter=old.engine.clara.retrieval_prefilter,
                caches=self.caches,
            )
            clara.attach_lazy_clusters(source)
            self._state = _ProblemState(revision=source.revision, engine=BatchRepairEngine(clara))
            # The replaced pipeline's repair memos are unreachable from now
            # on (new identity token); evict them so a daemon reloading per
            # accepted submission does not leak one generation per reload.
            # In-flight requests on the old engine just recompute on a miss.
            old.engine.clara.forget_repair_memos()
            return old.revision, self._state.revision

    def stats(self) -> dict:
        """This problem's section of the ``stats`` op.

        The pipeline's :meth:`~repro.core.pipeline.Clara.counters_payload`
        (the vocabulary ``batch --profile`` writes) plus the serving
        ``revision``, its ``clusters`` count and the cumulative
        trace/match/repair ``cache`` counters, all read off one snapshot.
        ``store_paging`` covers the current generation only (segments and
        clusters loaded since the last reload).
        """
        state = self._state
        clara = state.engine.clara
        return {
            "revision": state.revision,
            "clusters": clara.cluster_count,
            "cache": self.caches.stats.as_dict(),
            **clara.counters_payload(),
        }


class ServiceStats:
    """Thread-safe service counters (all monotonic except ``in_flight``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.repairs = 0
        self.errors = 0
        self.rejected_overload = 0
        self.deadline_timeouts = 0
        self.reloads = 0
        self.in_flight = 0

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "requests": self.requests,
                "repairs": self.repairs,
                "errors": self.errors,
                "rejected_overload": self.rejected_overload,
                "deadline_timeouts": self.deadline_timeouts,
                "reloads": self.reloads,
                "in_flight": self.in_flight,
            }

    def bump(self, field: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + delta)


class RepairService:
    """Front door: many clients, one warm engine per problem.

    Args:
        queue_size: Maximum repairs in flight (queued + running) on the
            async path; the next request is rejected with an
            ``overloaded`` error.
        workers: Repair pool threads of the async path, shared by all
            problems (created on first use).
        default_deadline: Per-request deadline in seconds applied when a
            request carries no ``deadline`` field; ``None`` means
            unbounded.
        profile: Attach a :class:`~repro.core.profile.PhaseProfiler` to
            every hosted problem's caches, so ``stats`` reports ``phases``.
        retrieval_prefilter: Forwarded pipeline configuration
            (:class:`repro.core.pipeline.Clara`).

    Thread safety: :meth:`handle`/:meth:`handle_line` are coroutines meant
    to run on one event loop; :meth:`answer`/:meth:`answer_line` run on the
    calling thread.  The underlying state (admission counter, stats,
    runtimes) is lock-guarded, so :meth:`reload` and :meth:`stats_snapshot`
    may additionally be called from other threads (the tests do).
    """

    def __init__(
        self,
        *,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        workers: int = DEFAULT_WORKERS,
        default_deadline: float | None = None,
        profile: bool = False,
        retrieval_prefilter: bool = True,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue_size = queue_size
        self.default_deadline = default_deadline
        self.profile = profile
        self.retrieval_prefilter = retrieval_prefilter
        self.stats = ServiceStats()
        self._problems: dict[str, ProblemRuntime] = {}
        self._admission_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repair"
        )

    # -- problem management ------------------------------------------------------

    def add_problem(self, store_path: str | Path) -> ProblemRuntime:
        """Load a cluster store and start serving its problem.

        The store names its problem, and the cases, language and entry come
        from the registered :class:`repro.datasets.ProblemSpec` of that
        name: ``service.add_problem("derivatives.json")``.  Only the store
        header is read here — segments page in lazily as repairs need them,
        so adding a large problem is O(header), not O(store).

        Raises:
            ClusterStoreError: Missing/unreadable store, stale format
                version, or case-signature mismatch.
            KeyError: The store names a problem the dataset registry does
                not know.
            ValueError: The store names no problem, or its problem is
                already served.
        """
        from ..datasets import get_problem

        store_path = Path(store_path)
        # One header read serves both the problem-name lookup and the
        # segment index the pipeline will page through, so the reported
        # revision always matches the served clustering.
        stored = open_served_store(
            store_path, {name: runtime.store_path for name, runtime in self._problems.items()}
        )
        name = stored.problem
        spec = get_problem(name)
        clara = Clara(
            cases=spec.cases,
            language=spec.language,
            entry=spec.entry,
            retrieval_prefilter=self.retrieval_prefilter,
            caches=RepairCaches(profiler=PhaseProfiler() if self.profile else None),
        )
        clara.attach_lazy_clusters(stored)
        runtime = ProblemRuntime(
            name=name,
            store_path=store_path,
            state=_ProblemState(revision=stored.revision, engine=BatchRepairEngine(clara)),
        )
        self._problems[name] = runtime
        return runtime

    def problems(self) -> list[ProblemRuntime]:
        return list(self._problems.values())

    def reload(self, problem: str | None = None) -> tuple[int, int]:
        """Hot-reload one problem's store (see :meth:`ProblemRuntime.reload`)."""
        runtime = self._resolve(problem)
        result = runtime.reload()
        self.stats.bump("reloads")
        return result

    def _resolve(self, problem: str | None) -> ProblemRuntime:
        return self._problems[resolve_problem(problem, self._problems)]

    # -- request handling --------------------------------------------------------

    def answer_line(self, line: str) -> dict:
        """Parse one wire line and answer it on this thread; never raises."""
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            self.stats.bump("errors")
            return error_payload(exc.code, exc.message, exc.request_id)
        return self.answer(request)

    def answer(self, request: Request) -> dict:
        """Answer one parsed request of any op on the calling thread.

        A repair runs inline, with its deadline (the request's, else
        ``default_deadline``) as the engine's per-attempt budget: the
        cluster search stops at it and the record reads ``timeout``.
        """
        self.stats.bump("requests")
        return self._count_repair(self._answer(request))

    def _count_repair(self, response: dict) -> dict:
        if response["ok"] and response["op"] == "repair":
            self.stats.bump("repairs")
        return response

    def _answer(self, request: Request) -> dict:
        try:
            if request.op == "repair":
                return self._repair(self._resolve(request.problem), request)
            if request.op == "ping":
                return response_payload(request, protocol=PROTOCOL_VERSION)
            if request.op == "stats":
                return response_payload(
                    request, protocol=PROTOCOL_VERSION, **self.stats_snapshot()
                )
            if request.op == "reload":
                runtime = self._resolve(request.problem)
                old, new = self.reload(runtime.name)
                return response_payload(
                    request, problem=runtime.name, previous_revision=old, revision=new
                )
            if request.op == "shutdown":
                # The transport layer watches for this response and stops;
                # the service itself has nothing to tear down per-request.
                return response_payload(request)
            raise ProtocolError("unknown-op", f"unknown op {request.op!r}")
        except Exception as exc:  # noqa: BLE001 - a request must never kill its caller
            return self._failure(request, exc)

    def _failure(self, request: Request, exc: Exception) -> dict:
        """The structured error answering a request that raised ``exc``."""
        self.stats.bump("errors")
        if isinstance(exc, ProtocolError):
            return error_payload(exc.code, exc.message, request.request_id)
        return error_payload("internal", f"{type(exc).__name__}: {exc}", request.request_id)

    async def handle_line(self, line: str) -> dict:
        """Parse one wire line and dispatch it; never raises for bad input."""
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            self.stats.bump("errors")
            return error_payload(exc.code, exc.message, exc.request_id)
        return await self.handle(request)

    async def handle(self, request: Request) -> dict:
        """Answer one parsed request from the event loop.

        A repair passes admission control and runs on the repair pool,
        bounded by ``asyncio.wait_for``.  A reload (store decode plus
        representative re-execution) runs on the default executor, not the
        repair pool, so a backlog of repairs cannot starve an operator's
        reload and pings stay live meanwhile.  Every op is :meth:`answer`'s.
        """
        if request.op == "reload":
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, self.answer, request)
        if request.op != "repair":
            return self.answer(request)
        self.stats.bump("requests")
        try:
            runtime = self._resolve(request.problem)
            with self._admission_lock:
                if self.stats.in_flight >= self.queue_size:
                    self.stats.bump("rejected_overload")
                    raise ProtocolError(
                        "overloaded", f"{self.queue_size} repairs already in flight"
                    )
                self.stats.bump("in_flight")
        except ProtocolError as exc:
            return self._failure(request, exc)
        # The revision at admission, which a timeout answer reports.
        revision = runtime.revision
        # Submit to the pool directly so the admission slot is released by
        # the *worker's* done-callback — i.e. when the repair truly ends
        # (or is cancelled before starting), not when a deadline abandons
        # it.  An abandoned repair therefore keeps holding its slot, which
        # is what makes queue_size a real bound on backlogged work.
        try:
            worker_future = self._executor.submit(self._answer, request)
        except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
            # submit can fail (e.g. the pool was shut down under a racing
            # close()); without a worker there is no done-callback, so the
            # slot must be released here or it leaks forever.
            self.stats.bump("in_flight", -1)
            return self._failure(request, exc)
        worker_future.add_done_callback(lambda _f: self.stats.bump("in_flight", -1))
        deadline = self._deadline(request)
        try:
            response = await asyncio.wait_for(asyncio.wrap_future(worker_future), deadline)
        except asyncio.TimeoutError:
            self.stats.bump("deadline_timeouts")
            return timeout_payload(request, runtime.name, revision, deadline)
        return self._count_repair(response)

    def _deadline(self, request: Request) -> float | None:
        return request.deadline if request.deadline is not None else self.default_deadline

    def _repair(self, runtime: ProblemRuntime, request: Request) -> dict:
        """One repair (a batch of size 1) as its response payload.

        The request keeps the generation it snapshots here through any
        reload.  If a segment was rewritten on disk under it, the repair
        re-runs once on the *current* generation (a racing reload installed
        one); without one, or on the same failure, it is ``stale-store``.
        """
        state = runtime.snapshot()
        attempt = BatchAttempt(
            attempt_id=str(request.request_id) if request.request_id is not None else "request",
            source=request.source,
        )
        deadline = self._deadline(request)
        try:
            try:
                record = state.engine.run([attempt], budget=deadline).records[0]
            except ClusterStoreError:
                if runtime.snapshot() is state:
                    raise
                state = runtime.snapshot()
                record = state.engine.run([attempt], budget=deadline).records[0]
        except ClusterStoreError as exc:
            raise ProtocolError(
                "stale-store", f"{exc} (send a 'reload' for problem {runtime.name!r})"
            ) from exc
        return response_payload(
            request,
            problem=runtime.name,
            revision=state.revision,
            status=record.status,
            detail=record.detail,
            cost=record.cost,
            relative_size=record.relative_size,
            num_modified=record.num_modified,
            feedback=record.feedback,
            elapsed=round(record.elapsed, 6),
        )

    # -- introspection and lifecycle ---------------------------------------------

    def stats_snapshot(self) -> dict:
        """Service counters plus each problem's :meth:`ProblemRuntime.stats`."""
        return {
            "service": self.stats.as_dict(),
            "queue_size": self.queue_size,
            "problems": {
                runtime.name: runtime.stats() for runtime in self._problems.values()
            },
        }

    def close(self) -> None:
        """Shut the worker pool down (finishes in-flight repairs)."""
        self._executor.shutdown(wait=True)
