"""Worker lifecycle supervision: spawn, watch, kill, restart, give up.

A :class:`WorkerSupervisor` owns one shard's worker subprocess
(:mod:`repro.fleet.worker`) end to end:

* **Handshake** — queued requests are held until the worker's ready frame
  arrives; a worker that never becomes ready within ``spawn_timeout`` is
  killed and counted as a crash.
* **FIFO correlation** — requests are written to the worker's stdin in
  submission order and responses matched to them by order, so the wire
  needs no envelope format and the worker stays a dumb loop.
* **Kill deadline** — a watchdog SIGKILLs the worker when the request at
  the head of the FIFO has been *processing* (head-of-queue, not merely
  queued) longer than ``kill_after`` — the hard wall-clock bound on a hung
  worker.
* **Heartbeats** — when idle for ``heartbeat_interval``, the watchdog
  sends an internal ``ping`` through the normal FIFO; a worker hung while
  idle therefore also trips the kill deadline instead of being discovered
  by the next unlucky client.
* **Crash recovery** — EOF on the worker's stdout (crash, SIGKILL, lost
  pipe) fails nothing immediately: requests in flight are re-queued for
  exactly one retry on the respawned worker, and only a request whose
  retry *also* dies is answered with a structured, retriable
  ``worker-crashed`` error.  The zero-lost-request invariant: every
  submitted future resolves with a response dict, always.
* **Backoff and circuit breaker** — respawns are delayed exponentially
  (:class:`BackoffPolicy`), and after ``max_strikes`` consecutive deaths
  without a single served response in between, the breaker opens: the
  shard is marked unavailable and every request is shed instantly with a
  retriable ``shard-unavailable`` error while other shards keep serving.
  Strikes reset on any successful response, so a worker that crashes
  rarely under real traffic never trips the breaker.

Thread safety: all public methods may be called from any thread; internal
state is guarded by one condition variable shared by the writer, reader
and watchdog threads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..service.protocol import error_payload

__all__ = ["BackoffPolicy", "READY_OP", "WorkerSupervisor"]

#: The op of the handshake frame a worker emits once it is serving.  Lives
#: here (not in :mod:`repro.fleet.worker`) so that importing the package
#: never imports the worker module — ``python -m repro.fleet.worker`` must
#: be its first import, or runpy warns about double execution.
READY_OP = "_worker-ready"

#: Fallback kill deadline (seconds a request may process before the worker
#: is presumed hung).  Generous: repairs are sub-second, store opens are
#: O(header).
DEFAULT_KILL_AFTER = 60.0

#: Default idle interval between watchdog heartbeat pings.
DEFAULT_HEARTBEAT_INTERVAL = 5.0


@dataclass(frozen=True)
class BackoffPolicy:
    """Restart backoff and circuit-breaker thresholds for one shard.

    Attributes:
        base: Delay before the first respawn, in seconds.
        factor: Multiplier per consecutive crash.
        max_delay: Ceiling on a single respawn delay.
        max_strikes: Consecutive worker deaths (with no served response in
            between) after which the breaker opens and the shard is marked
            unavailable instead of respawning again.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    max_strikes: int = 3

    def delay(self, strike: int) -> float:
        """Respawn delay after the ``strike``-th consecutive crash (0-based)."""
        return min(self.max_delay, self.base * self.factor ** max(0, strike))

    def budget(self) -> float:
        """Worst-case total backoff sleep before the breaker can open."""
        return sum(self.delay(strike) for strike in range(self.max_strikes))


class _Pending:
    """One submitted request riding the supervisor's queues."""

    __slots__ = ("line", "request_id", "future", "internal", "retried", "started")

    def __init__(self, line: str, request_id: object, future: Future, internal: bool) -> None:
        self.line = line
        self.request_id = request_id
        self.future = future
        self.internal = internal
        self.retried = False
        #: When this request reached the head of the FIFO (i.e. started
        #: processing); the kill deadline is measured from here.
        self.started: float | None = None


class WorkerSupervisor:
    """Supervise one worker subprocess serving a shard of problems.

    Args:
        worker_id: Shard index (stable; appears in errors, stats, faults).
        stores: Cluster-store paths the worker hosts.
        threads: Repair threads inside the worker process.
        deadline: Default per-request deadline forwarded to the worker.
        fault_plan_path: Optional fault-injection plan file (tests/soak).
        backoff: Restart/breaker policy.
        kill_after: Hard wall-clock bound on one request's processing time
            before the worker is SIGKILLed; ``None`` disables the watchdog
            kill (a hung worker then stalls its shard forever — only for
            tests).
        heartbeat_interval: Idle seconds between watchdog pings; ``None``
            disables heartbeats.
        spawn_timeout: Seconds a spawned process gets to emit its ready
            frame before being killed (counts as a crash).
        python: Interpreter for the worker processes.  A spawn that fails
            outright (missing interpreter, fd exhaustion) counts as a
            crash too, so it backs off, strikes and trips the breaker.
        profile: Attach a per-phase profiler to every hosted pipeline
            (its ``phases`` show up in the worker's ``stats``).
        retrieval_prefilter: Forwarded pipeline configuration
            (:class:`repro.core.pipeline.Clara`).
    """

    def __init__(
        self,
        worker_id: int,
        stores: Sequence[str | Path],
        *,
        threads: int = 1,
        deadline: float | None = None,
        fault_plan_path: str | Path | None = None,
        backoff: BackoffPolicy | None = None,
        kill_after: float | None = DEFAULT_KILL_AFTER,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        spawn_timeout: float = 30.0,
        python: str = sys.executable,
        profile: bool = False,
        retrieval_prefilter: bool = True,
    ) -> None:
        self.worker_id = worker_id
        self.stores = [Path(store) for store in stores]
        self.threads = threads
        self.deadline = deadline
        self.fault_plan_path = Path(fault_plan_path) if fault_plan_path else None
        self.backoff = backoff or BackoffPolicy()
        self.kill_after = kill_after
        self.heartbeat_interval = heartbeat_interval
        self.spawn_timeout = spawn_timeout
        self.python = python
        self.profile = profile
        self.retrieval_prefilter = retrieval_prefilter

        self._cond = threading.Condition()
        self._state = "stopped"  # starting | serving | restarting | unavailable | stopped
        self._stopping = False
        self._proc: subprocess.Popen | None = None
        self._incarnation = -1
        self._pid: int | None = None
        self._strikes = 0
        self._outbox: deque[_Pending] = deque()
        self._pending: deque[_Pending] = deque()
        self._last_activity = time.monotonic()
        self._reader: threading.Thread | None = None
        self._writer: threading.Thread | None = None
        self._watchdog: threading.Thread | None = None
        self.counters = {
            "crashes": 0,
            "kills": 0,
            "restarts": 0,
            "retries": 0,
            "shed": 0,
            "served": 0,
        }

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Spawn incarnation 0 and the writer/watchdog threads (non-blocking)."""
        with self._cond:
            if self._state != "stopped" or self._stopping:
                raise RuntimeError(f"worker {self.worker_id} already started")
        self._writer = threading.Thread(
            target=self._write_loop, name=f"fleet-writer-{self.worker_id}", daemon=True
        )
        self._writer.start()
        if self.kill_after is not None or self.heartbeat_interval is not None:
            self._watchdog = threading.Thread(
                target=self._watch_loop, name=f"fleet-watchdog-{self.worker_id}", daemon=True
            )
            self._watchdog.start()
        self._spawn(0)
        ready_watch = threading.Thread(
            target=self._await_ready, args=(0,), daemon=True
        )
        ready_watch.start()

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the shard is serving (or terminally unavailable)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._state in ("serving", "unavailable", "stopped"), timeout
            )

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful stop: close stdin, let the worker drain, then kill.

        Queued-but-unsent requests are answered with a retriable
        ``draining`` error; requests already on the worker's stdin get
        their responses (the worker finishes buffered lines on EOF) unless
        the drain timeout expires first.
        """
        with self._cond:
            if self._stopping:
                return
            self._stopping = True
            while self._outbox:
                self._resolve(self._outbox.popleft(), self._draining_error)
            proc = self._proc
            self._cond.notify_all()
        if proc is not None:
            try:
                if proc.stdin is not None:
                    proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=drain_timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        reader = self._reader
        if reader is not None:
            reader.join(timeout=drain_timeout)
        with self._cond:
            # A stop before any spawn (or after the breaker opened) has no
            # reader to run the EOF path; fail whatever is left here.
            while self._pending:
                self._resolve(self._pending.popleft(), self._draining_error)
            self._state = "stopped"
            self._cond.notify_all()

    # -- submission ---------------------------------------------------------------

    def submit(
        self, line: str, *, request_id: object = None, internal: bool = False
    ) -> "Future[dict]":
        """Queue one raw request line; the future resolves to a response dict.

        Never raises and never leaves the future unresolved — shed and
        draining states resolve it immediately with a structured error.
        """
        future: Future = Future()
        pend = _Pending(line, request_id, future, internal)
        with self._cond:
            if self._state == "unavailable":
                if not internal:
                    self.counters["shed"] += 1
                self._resolve(pend, self._unavailable_error)
                return future
            if self._stopping or self._state == "stopped":
                self._resolve(pend, self._draining_error)
                return future
            self._outbox.append(pend)
            self._last_activity = time.monotonic()
            self._cond.notify_all()
        return future

    # -- introspection ------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def pid(self) -> int | None:
        """PID of the current worker incarnation (None until first ready)."""
        return self._pid

    @property
    def incarnation(self) -> int:
        return self._incarnation

    def describe(self) -> dict:
        """Deterministic-by-construction shard status for the stats op."""
        with self._cond:
            return {
                "state": self._state,
                "pid": self._pid,
                "incarnation": self._incarnation,
                "strikes": self._strikes,
                "queued": len(self._outbox) + len(self._pending),
                "counters": dict(sorted(self.counters.items())),
            }

    # -- spawn / respawn ----------------------------------------------------------

    def _command(self, incarnation: int) -> list[str]:
        command = [self.python, "-m", "repro.fleet.worker"]
        for store in self.stores:
            command += ["--store", str(store)]
        command += [
            "--worker-id", str(self.worker_id),
            "--incarnation", str(incarnation),
            "--threads", str(self.threads),
        ]
        if self.deadline is not None:
            command += ["--deadline", str(self.deadline)]
        if self.fault_plan_path is not None:
            command += ["--fault-plan", str(self.fault_plan_path)]
        if self.profile:
            command.append("--profile")
        if not self.retrieval_prefilter:
            command.append("--no-prefilter")
        return command

    def _environment(self) -> dict:
        env = dict(os.environ)
        # The worker must import the same repro package this process runs,
        # whether or not it was pip-installed.
        src = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        return env

    def _spawn(self, incarnation: int) -> None:
        try:
            proc = subprocess.Popen(
                self._command(incarnation),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,  # worker tracebacks go to the operator's console
                env=self._environment(),
            )
        except OSError:
            # A process that never started is a worker that died at once:
            # same strike, backoff and breaker, so queued futures resolve.
            with self._cond:
                if self._stopping:
                    return
                self._incarnation = incarnation
            self._handle_exit(incarnation)
            return
        with self._cond:
            if self._stopping:
                # A stop raced the respawn; do not adopt the new process.
                proc.kill()
                proc.wait()
                return
            self._proc = proc
            self._incarnation = incarnation
            self._state = "starting"
            self._cond.notify_all()
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(proc, incarnation),
            name=f"fleet-reader-{self.worker_id}-{incarnation}",
            daemon=True,
        )
        self._reader.start()

    def _await_ready(self, incarnation: int) -> None:
        """Kill a spawn that never handshakes; the EOF path counts the crash."""
        with self._cond:
            ready = self._cond.wait_for(
                lambda: self._stopping
                or self._incarnation != incarnation
                or self._state != "starting",
                self.spawn_timeout,
            )
            proc = self._proc if self._incarnation == incarnation else None
        if not ready and proc is not None:
            proc.kill()

    def _restart(self, strike: int) -> None:
        time.sleep(self.backoff.delay(strike))
        with self._cond:
            if self._stopping or self._state != "restarting":
                return
            self.counters["restarts"] += 1
            incarnation = self._incarnation + 1
        self._spawn(incarnation)
        self._await_ready(incarnation)

    # -- worker I/O threads -------------------------------------------------------

    def _write_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._stopping
                    or (self._outbox and self._state == "serving")
                )
                if self._stopping:
                    return
                pend = self._outbox.popleft()
                self._pending.append(pend)
                if len(self._pending) == 1:
                    pend.started = time.monotonic()
                self._last_activity = time.monotonic()
                proc = self._proc
            try:
                assert proc is not None and proc.stdin is not None
                proc.stdin.write(pend.line.encode("utf-8") + b"\n")
                proc.stdin.flush()
            except (OSError, ValueError, AssertionError):
                # The worker died under the write; pend already sits in
                # the pending FIFO, so the EOF path retries or fails it.
                pass

    def _read_loop(self, proc: subprocess.Popen, incarnation: int) -> None:
        assert proc.stdout is not None
        for raw in iter(proc.stdout.readline, b""):
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                continue  # stray non-JSON output must not desync the FIFO
            if not isinstance(payload, dict):
                continue
            if payload.get("op") == READY_OP:
                with self._cond:
                    if self._incarnation == incarnation and not self._stopping:
                        self._pid = payload.get("pid")
                        self._state = "serving"
                        self._cond.notify_all()
                continue
            with self._cond:
                if not self._pending:
                    continue
                pend = self._pending.popleft()
                if self._pending:
                    self._pending[0].started = time.monotonic()
                self._last_activity = time.monotonic()
                self._strikes = 0
                if not pend.internal:
                    self.counters["served"] += 1
                self._resolve(pend, lambda _p: payload)
        proc.wait()
        self._handle_exit(incarnation)

    def _handle_exit(self, incarnation: int) -> None:
        with self._cond:
            if self._incarnation != incarnation:
                return
            if self._stopping:
                while self._pending:
                    self._resolve(self._pending.popleft(), self._draining_error)
                self._state = "stopped"
                self._cond.notify_all()
                return
            self.counters["crashes"] += 1
            self._strikes += 1
            requeue: list[_Pending] = []
            while self._pending:
                pend = self._pending.popleft()
                if pend.internal:
                    # Heartbeats have no client; drop them silently (the
                    # future is resolved for hygiene, nobody awaits it).
                    self._resolve(pend, self._crashed_error)
                elif pend.retried:
                    self._resolve(pend, self._crashed_error)
                else:
                    pend.retried = True
                    pend.started = None
                    requeue.append(pend)
            if self._strikes >= self.backoff.max_strikes:
                self._state = "unavailable"
                for pend in requeue:
                    self._resolve(pend, self._crashed_error)
                while self._outbox:
                    pend = self._outbox.popleft()
                    if not pend.internal:
                        self.counters["shed"] += 1
                    self._resolve(pend, self._unavailable_error)
            else:
                self.counters["retries"] += len(requeue)
                for pend in reversed(requeue):
                    self._outbox.appendleft(pend)
                self._state = "restarting"
                strike = self._strikes - 1
                threading.Thread(
                    target=self._restart, args=(strike,), daemon=True
                ).start()
            self._cond.notify_all()

    def _watch_loop(self) -> None:
        bounds = [b for b in (self.kill_after, self.heartbeat_interval) if b is not None]
        poll = max(0.01, min(0.05, *[b / 5 for b in bounds]))
        while True:
            kill_proc = None
            heartbeat = False
            with self._cond:
                if self._stopping or self._state == "unavailable":
                    return
                now = time.monotonic()
                if (
                    self.kill_after is not None
                    and self._state == "serving"
                    and self._pending
                    and self._pending[0].started is not None
                    and now - self._pending[0].started > self.kill_after
                ):
                    kill_proc = self._proc
                    self.counters["kills"] += 1
                elif (
                    self.heartbeat_interval is not None
                    and self._state == "serving"
                    and not self._pending
                    and not self._outbox
                    and now - self._last_activity >= self.heartbeat_interval
                ):
                    heartbeat = True
            if kill_proc is not None:
                try:
                    kill_proc.kill()
                except OSError:
                    pass
            elif heartbeat:
                self.submit(
                    json.dumps({"op": "ping", "id": f"_heartbeat-{self.worker_id}"}),
                    internal=True,
                )
            time.sleep(poll)

    # -- error payloads -----------------------------------------------------------

    @staticmethod
    def _resolve(pend: _Pending, payload_for) -> None:
        if not pend.future.done():
            pend.future.set_result(payload_for(pend))

    def _crashed_error(self, pend: _Pending) -> dict:
        return error_payload(
            "worker-crashed",
            f"worker shard {self.worker_id} died while handling this request "
            "(already retried once on the respawn); retry after a backoff",
            pend.request_id,
        )

    def _unavailable_error(self, pend: _Pending) -> dict:
        return error_payload(
            "shard-unavailable",
            f"worker shard {self.worker_id} is unavailable (circuit breaker "
            f"open after {self._strikes} consecutive crashes); other shards "
            "keep serving — retry later",
            pend.request_id,
        )

    def _draining_error(self, pend: _Pending) -> dict:
        return error_payload(
            "draining",
            f"worker shard {self.worker_id} is shutting down",
            pend.request_id,
        )
