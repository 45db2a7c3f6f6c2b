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

A repair's deadline bounds the router's wait on the shard: past it, the
client gets the in-process ``timeout`` answer, while the worker, which uses
the deadline as its search budget, finishes under the kill watchdog.  The
request is then abandoned: if the watchdog kills the worker, the respawn
does not repair it again.

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

from ..core.profile import sum_counters
from ..service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    error_payload,
    parse_request_line,
    resolve_problem,
    response_payload,
    timeout_payload,
)
from ..service.service import open_served_store
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
            round-robin in this order.  Each passes
            ``RepairService.add_problem``'s store check (and raises its
            exceptions) *before* any worker is spawned.
        fleet_size: Worker subprocesses; capped at ``len(stores)`` (a
            worker with no problems would serve nothing).
        default_deadline: Per-request deadline applied when a request
            carries none: the router's wait on the shard and the worker's
            search budget.
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
        served: dict[str, Path] = {}
        # The revision each problem was last answered with, which a
        # deadline's timeout answer reports.
        self._revisions: dict[str, int] = {}
        for store in stores:
            stored = open_served_store(store, served)
            served[stored.problem] = Path(store)
            self._revisions[stored.problem] = stored.revision
        self.default_deadline = default_deadline
        self.fleet_size = min(fleet_size, len(stores))
        # Round-robin in store order.
        self._shard_of = {name: index % self.fleet_size for index, name in enumerate(served)}
        self._shard_problems = [
            [name for name, of in self._shard_of.items() if of == shard]
            for shard in range(self.fleet_size)
        ]
        self.supervisors = [
            WorkerSupervisor(
                shard,
                [served[name] for name in self._shard_problems[shard]],
                deadline=default_deadline,
                fault_plan_path=fault_plan_path,
                backoff=backoff,
                kill_after=kill_after,
                heartbeat_interval=heartbeat_interval,
                spawn_timeout=spawn_timeout,
            )
            for shard in range(self.fleet_size)
        ]
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
        return list(self._shard_of)

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
                return response_payload(request, protocol=PROTOCOL_VERSION)
            if request.op == "shutdown":
                return response_payload(request)
            if request.op == "stats":
                return await self._handle_stats(request)
            # repair / reload: forward the original line verbatim — the
            # worker's RepairService re-validates and answers with ids,
            # revisions and statuses exactly as the single-process daemon
            # would.
            problem = resolve_problem(request.problem, self._shard_of)
            supervisor = self.shard_for(problem)
            future = supervisor.submit(line, request_id=request.request_id)
            deadline = request.deadline if request.deadline is not None else self.default_deadline
            if request.op != "repair":
                deadline = None
            try:
                response = await asyncio.wait_for(asyncio.wrap_future(future), deadline)
            except asyncio.TimeoutError:
                supervisor.abandon(future)
                return timeout_payload(request, problem, self._revisions[problem], deadline)
            if "revision" in response:
                self._revisions[problem] = response["revision"]
            return response
        except ProtocolError as exc:
            return error_payload(exc.code, exc.message, request.request_id)
        except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
            return error_payload(
                "internal", f"{type(exc).__name__}: {exc}", request.request_id
            )

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
        return response_payload(
            request,
            protocol=PROTOCOL_VERSION,
            fleet=self._fleet_stats(),
            workers=dict(gathered),
        )
