"""The fleet front door: route by problem to supervised worker shards.

A :class:`FleetService` is a drop-in for
:class:`~repro.service.service.RepairService` behind the existing TCP
transport (:class:`~repro.service.server.RepairServer` only needs
``handle_line``): it speaks the same NDJSON protocol on the wire, but
instead of repairing in-process it forwards each ``repair``/``reload``
line verbatim to the :class:`~repro.fleet.supervisor.WorkerSupervisor`
owning that problem's shard, and awaits the worker's response.  Problems
are assigned to ``fleet_size`` shards round-robin in the order their
stores were given; each worker subprocess holds a warm
:class:`~repro.engine.batch.BatchRepairEngine` per hosted problem, so N
shards repair on N cores — the GIL bounds a *shard*, not the fleet.

Failure containment is the point: a crashed, hung or flapping worker is
that shard's problem alone.  The supervisor retries in-flight requests
once on the respawn and otherwise answers with structured retriable
errors (``worker-crashed``, ``shard-unavailable``); the router keeps
routing other shards' traffic throughout, and the client connection never
drops.

``ping``/``stats``/``shutdown`` are answered at the router.  ``stats``
reports the fleet topology and per-shard recovery counters under
``fleet`` and, for every serving shard, the worker's own stats payload
under ``workers`` (gathered concurrently with a timeout, so one wedged
shard cannot stall the op).
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Sequence

from ..clusterstore.store import ClusterStoreError, read_store_header
from ..core.profile import sum_counters
from ..service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    error_payload,
    parse_request_line,
)
from .faults import FaultPlan  # noqa: F401  (re-exported convenience)
from .supervisor import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_KILL_AFTER,
    BackoffPolicy,
    WorkerSupervisor,
)

__all__ = ["FleetService"]

#: Default shard count for ``serve --fleet``.
DEFAULT_FLEET_SIZE = 2

#: Ceiling on one shard's contribution to a fan-out ``stats`` op.
STATS_TIMEOUT = 10.0


class FleetService:
    """Front router over ``fleet_size`` supervised worker subprocesses.

    Args:
        stores: Cluster-store paths, one per problem; assigned to shards
            round-robin in this order.  Headers are read (and problems
            resolved against the dataset registry) *before* any worker is
            spawned, so a missing/stale store or unknown problem fails
            fast with the same exceptions ``RepairService.add_problem``
            raises.
        fleet_size: Worker subprocesses; capped at ``len(stores)`` (a
            worker with no problems would serve nothing).
        threads: Repair threads inside each worker.
        default_deadline: Per-request deadline each worker applies when a
            request carries none.
        fault_plan_path: Fault-injection plan forwarded to every worker.
        backoff: Restart/breaker policy for every shard.
        kill_after: Hard per-request processing bound before a worker is
            killed as hung (``None`` disables the kill watchdog).
        heartbeat_interval: Idle heartbeat period (``None`` disables).
        spawn_timeout: Per-spawn readiness deadline.

    Thread safety: ``handle_line`` runs on one event loop; supervisors are
    internally locked, and :meth:`close`/:meth:`fleet_counters` may be
    called from any thread.
    """

    def __init__(
        self,
        stores: Sequence[str | Path],
        *,
        fleet_size: int = DEFAULT_FLEET_SIZE,
        threads: int = 1,
        default_deadline: float | None = None,
        fault_plan_path: str | Path | None = None,
        backoff: BackoffPolicy | None = None,
        kill_after: float | None = DEFAULT_KILL_AFTER,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        spawn_timeout: float = 30.0,
    ) -> None:
        if not stores:
            raise ValueError("a fleet needs at least one cluster store")
        if fleet_size < 1:
            raise ValueError(f"fleet_size must be >= 1, got {fleet_size}")
        from ..datasets import get_problem

        names: list[str] = []
        for store in stores:
            header = read_store_header(store)
            if not header.is_current:
                raise ClusterStoreError(
                    f"cluster store {store} has format version "
                    f"{header.format_version}; rebuild or migrate it before serving"
                )
            name = header.problem
            if name is None:
                raise ValueError(f"cluster store {store} records no problem name")
            if name in names:
                raise ValueError(f"problem {name!r} appears in more than one store")
            get_problem(name)  # fail fast on unregistered problems, like add_problem
            names.append(name)

        self.fleet_size = min(fleet_size, len(stores))
        shard_stores: list[list[Path]] = [[] for _ in range(self.fleet_size)]
        shard_names: list[list[str]] = [[] for _ in range(self.fleet_size)]
        for index, (store, name) in enumerate(zip(stores, names)):
            shard_stores[index % self.fleet_size].append(Path(store))
            shard_names[index % self.fleet_size].append(name)
        self._shard_of = {
            name: shard
            for shard, shard_problem_names in enumerate(shard_names)
            for name in shard_problem_names
        }
        self._problem_names = names
        self.supervisors = [
            WorkerSupervisor(
                shard,
                shard_stores[shard],
                threads=threads,
                deadline=default_deadline,
                fault_plan_path=fault_plan_path,
                backoff=backoff,
                kill_after=kill_after,
                heartbeat_interval=heartbeat_interval,
                spawn_timeout=spawn_timeout,
            )
            for shard in range(self.fleet_size)
        ]
        self._shard_problems = shard_names
        for supervisor in self.supervisors:
            supervisor.start()

    # -- lifecycle ----------------------------------------------------------------

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until every shard is serving (or terminally down)."""
        return all(supervisor.wait_ready(timeout) for supervisor in self.supervisors)

    def close(self, drain_timeout: float = 5.0) -> None:
        """Stop every shard gracefully (concurrently, bounded by the timeout)."""
        import threading

        threads = [
            threading.Thread(target=supervisor.stop, args=(drain_timeout,))
            for supervisor in self.supervisors
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # -- introspection ------------------------------------------------------------

    def problems(self) -> list[str]:
        """Hosted problem names, in store order (parity with RepairService)."""
        return list(self._problem_names)

    def shard_for(self, problem: str) -> WorkerSupervisor:
        return self.supervisors[self._shard_of[problem]]

    def fleet_counters(self) -> dict:
        """Aggregated recovery counters across shards (deterministic order)."""
        totals = sum_counters(supervisor.counters for supervisor in self.supervisors)
        return dict(sorted(totals.items()))

    def _fleet_stats(self) -> dict:
        return {
            "size": self.fleet_size,
            "shards": {
                str(shard): {
                    "problems": self._shard_problems[shard],
                    **supervisor.describe(),
                }
                for shard, supervisor in enumerate(self.supervisors)
            },
            "totals": self.fleet_counters(),
        }

    # -- request handling ---------------------------------------------------------

    async def handle_line(self, line: str) -> dict:
        """Parse one wire line, route it, and await the answer; never raises."""
        try:
            request = parse_request_line(line)
        except ProtocolError as exc:
            return error_payload(exc.code, exc.message, exc.request_id)
        try:
            if request.op == "ping":
                return self._base_response(request, protocol=PROTOCOL_VERSION)
            if request.op == "shutdown":
                return self._base_response(request)
            if request.op == "stats":
                return await self._handle_stats(request)
            # repair / reload: forward the original line verbatim — the
            # worker's RepairService re-validates and answers with ids,
            # revisions and statuses exactly as the single-process daemon
            # would.
            supervisor = self._resolve(request)
            future = supervisor.submit(line, request_id=request.request_id)
            return await asyncio.wrap_future(future)
        except ProtocolError as exc:
            return error_payload(exc.code, exc.message, request.request_id)
        except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
            return error_payload(
                "internal", f"{type(exc).__name__}: {exc}", request.request_id
            )

    def _resolve(self, request: Request) -> WorkerSupervisor:
        problem = request.problem
        if problem is None:
            if len(self._problem_names) == 1:
                problem = self._problem_names[0]
            else:
                raise ProtocolError(
                    "bad-request",
                    "request names no problem and the fleet hosts "
                    f"{len(self._problem_names)} — pass 'problem'",
                    request.request_id,
                )
        if problem not in self._shard_of:
            raise ProtocolError(
                "unknown-problem",
                f"problem {problem!r} is not served here "
                f"(hosting: {', '.join(sorted(self._shard_of))})",
                request.request_id,
            )
        return self.shard_for(problem)

    async def _handle_stats(self, request: Request) -> dict:
        """Router topology plus each serving shard's own stats payload."""

        async def shard_stats(supervisor: WorkerSupervisor) -> tuple[str, dict]:
            key = str(supervisor.worker_id)
            if supervisor.state != "serving":
                return key, {"error": f"shard is {supervisor.state}"}
            future = supervisor.submit('{"op": "stats"}', internal=True)
            try:
                payload = await asyncio.wait_for(
                    asyncio.wrap_future(future), STATS_TIMEOUT
                )
            except asyncio.TimeoutError:
                return key, {"error": "shard did not answer within the stats timeout"}
            return key, payload

        gathered = await asyncio.gather(
            *(shard_stats(supervisor) for supervisor in self.supervisors)
        )
        return self._base_response(
            request,
            protocol=PROTOCOL_VERSION,
            fleet=self._fleet_stats(),
            workers=dict(gathered),
        )

    @staticmethod
    def _base_response(request: Request, **fields) -> dict:
        response: dict = {"ok": True, "op": request.op}
        if request.request_id is not None:
            response["id"] = request.request_id
        response.update(fields)
        return response
