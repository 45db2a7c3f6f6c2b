"""The fleet worker: one supervised subprocess, one warm engine per problem.

Run as ``python -m repro.fleet.worker --store <store> [--store ...]``.  A
worker is deliberately dumb: it wraps a plain
:class:`~repro.service.service.RepairService` (the same object the
single-process daemon uses) in a synchronous NDJSON loop over
stdin/stdout — one request line in, one response line out, in order.  All
supervision intelligence (health checks, kill deadlines, restarts, the
circuit breaker) lives in the parent's
:class:`~repro.fleet.supervisor.WorkerSupervisor`; the pipe pair is the
whole protocol, so a worker that dies mid-request simply goes quiet and
the supervisor observes EOF.

Handshake: the first line a healthy worker writes is a ready frame ::

    {"ok": true, "op": "_worker-ready", "worker": 0, "incarnation": 0,
     "pid": 12345, "problems": ["derivatives"]}

(an op outside the public protocol's namespace, so it can never collide
with a response).  The supervisor holds queued requests until it arrives.

Requests are answered strictly in order on the reading thread
(:meth:`~repro.service.service.RepairService.answer_line`: no event loop,
no thread pool) — per-shard serialisation is the concurrency model
(cross-problem parallelism comes from running many workers), and it is
what lets the supervisor correlate responses to requests by FIFO order
with no envelope format on the wire.  A request's deadline is the repair
search's budget; the router answers a client whose deadline passes first,
and the supervisor's kill watchdog bounds the rest of the request.

A configured :class:`~repro.fleet.faults.FaultPlan` is consulted *before*
each request is handled; ``crash`` calls ``os._exit`` (no cleanup — the
hard-crash shape), ``hang``/``delay`` sleep first.  EOF on stdin is the
graceful-stop signal: finish buffered requests, flush, exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ..clusterstore.store import ClusterStoreError
from ..service.service import RepairService
from .faults import FaultPlan, FaultPlanError
from .supervisor import READY_OP

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-clara-worker",
        description="Fleet worker subprocess (NDJSON over stdin/stdout); "
        "spawned by the fleet supervisor, not meant to be run by hand.",
    )
    parser.add_argument(
        "--store", action="append", required=True, dest="stores",
        help="cluster store for one hosted problem; repeatable",
    )
    parser.add_argument("--worker-id", type=int, default=0)
    parser.add_argument(
        "--incarnation", type=int, default=0,
        help="0 for the first spawn, incremented by the supervisor per restart "
        "(fault-plan rules key on it)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="default per-request deadline (seconds): the repair search budget",
    )
    parser.add_argument(
        "--fault-plan", default=None, help="JSON fault-injection plan (tests/soak only)"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach a per-phase profiler to every hosted pipeline",
    )
    parser.add_argument(
        "--no-prefilter", action="store_true", help="disable the retrieval prefilter"
    )
    return parser


def _apply_fault(plan: FaultPlan, worker: int, incarnation: int, op: str, ordinal: int) -> None:
    fault = plan.lookup(worker=worker, incarnation=incarnation, op=op, ordinal=ordinal)
    if fault is None:
        return
    if fault.action == "crash":
        # Flush nothing, clean up nothing: to the supervisor this must be
        # indistinguishable from a segfault or an external SIGKILL.
        os._exit(fault.exit_code)
    time.sleep(fault.seconds)


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        plan = FaultPlan.load(args.fault_plan) if args.fault_plan else FaultPlan()
    except FaultPlanError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    service = RepairService(
        default_deadline=args.deadline,
        profile=args.profile,
        retrieval_prefilter=not args.no_prefilter,
    )
    try:
        for store in args.stores:
            service.add_problem(store)
    except (ClusterStoreError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(message, file=sys.stderr)
        return 2

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer

    def emit(payload: dict) -> None:
        stdout.write(json.dumps(payload).encode("utf-8") + b"\n")
        stdout.flush()

    emit(
        {
            "ok": True,
            "op": READY_OP,
            "worker": args.worker_id,
            "incarnation": args.incarnation,
            "pid": os.getpid(),
            "problems": sorted(runtime.name for runtime in service.problems()),
        }
    )

    ordinals: dict[str, int] = {}
    try:
        while True:
            line = stdin.readline()
            if not line:
                break  # supervisor closed our stdin: graceful stop
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            if plan:
                # Fault coordinates are (op, per-incarnation ordinal of that
                # op); a line too malformed to name an op is never faulted —
                # it flows through to the service's structured error.
                try:
                    op = json.loads(text).get("op")
                except (json.JSONDecodeError, AttributeError):
                    op = None
                if isinstance(op, str):
                    ordinal = ordinals.get(op, 0)
                    ordinals[op] = ordinal + 1
                    _apply_fault(plan, args.worker_id, args.incarnation, op, ordinal)
            emit(service.answer_line(text))
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    status = main()
    # Every response is flushed by now.  Skip the interpreter's teardown of
    # the warm caches (~0.2 s after a 100-attempt batch shard): the
    # supervisor's stop() waits on this exit.
    sys.stderr.flush()
    os._exit(status)
