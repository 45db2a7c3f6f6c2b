"""The worker fleet: supervision, crash recovery, fault injection, retries.

Every failure mode is driven through a deterministic
:class:`~repro.fleet.faults.FaultPlan` — faults key on (worker,
incarnation, op, ordinal), never wall-clock time — so these tests have no
sleep-and-hope races: a crash happens exactly on the Nth repair of a
given process incarnation, every run.

Fleet tests spawn real worker subprocesses (the same
``python -m repro.fleet.worker`` path production uses); the drain test
runs the full ``repro-clara serve --fleet`` CLI under SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Clara
from repro.clusterstore import ClusterStoreError, read_store_header
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, BatchRepairEngine
from repro.engine.parallel import ProcessBatchEngine
from repro.fleet import (
    BackoffPolicy,
    Fault,
    FaultPlan,
    FaultPlanError,
    FleetService,
    WorkerSupervisor,
)
from repro.service import RepairService, RetryPolicy, ServiceClient
from repro.service.protocol import RETRIABLE_CODES, error_payload, is_retriable

PROBLEMS = ("derivatives", "oddTuples")


@pytest.fixture(scope="module")
def corpora():
    return {
        name: generate_corpus(get_problem(name), 6, 3, seed=7) for name in PROBLEMS
    }


@pytest.fixture(scope="module")
def stores(tmp_path_factory, corpora):
    directory = tmp_path_factory.mktemp("fleet")
    paths = []
    for name in PROBLEMS:
        spec = get_problem(name)
        clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
        clara.add_correct_sources(corpora[name].correct_sources)
        paths.append(clara.save_clusters(directory / f"{name}.json", problem=name))
    return paths


def _repair_line(source, problem="derivatives", request_id="r"):
    return json.dumps(
        {"op": "repair", "problem": problem, "source": source, "id": request_id}
    )


def _run(coro):
    return asyncio.run(coro)


def _fleet(stores, tmp_path, faults=(), **kwargs):
    plan_path = None
    if faults:
        plan_path = FaultPlan(faults).save(tmp_path / "plan.json")
    kwargs.setdefault("heartbeat_interval", None)
    kwargs.setdefault("backoff", BackoffPolicy(base=0.02, factor=2.0, max_strikes=3))
    fleet = FleetService(stores, fault_plan_path=plan_path, **kwargs)
    assert fleet.wait_ready(60), "fleet did not reach serving"
    return fleet


# -- fault plans -------------------------------------------------------------------


class TestFaultPlan:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            (
                Fault(action="crash", request=3, worker=0, incarnation=0, exit_code=9),
                Fault(action="hang", request=4, worker=0, incarnation=1, seconds=1800.0),
                Fault(action="delay", request=2, worker=1, seconds=0.05),
            )
        )
        loaded = FaultPlan.load(plan.save(tmp_path / "plan.json"))
        assert loaded.faults == plan.faults

    def test_matching_coordinates(self):
        fault = Fault(action="crash", request=2, worker=1, incarnation=0)
        assert fault.matches(worker=1, incarnation=0, op="repair", ordinal=2)
        assert not fault.matches(worker=0, incarnation=0, op="repair", ordinal=2)
        assert not fault.matches(worker=1, incarnation=1, op="repair", ordinal=2)
        assert not fault.matches(worker=1, incarnation=0, op="stats", ordinal=2)
        assert not fault.matches(worker=1, incarnation=0, op="repair", ordinal=3)

    def test_omitted_incarnation_matches_every_respawn(self):
        flappy = Fault(action="crash", request=0, worker=0)
        for incarnation in range(5):
            assert flappy.matches(worker=0, incarnation=incarnation, op="repair", ordinal=0)

    def test_lookup_first_match_and_empty_plan(self):
        first = Fault(action="delay", request=0, seconds=0.01)
        second = Fault(action="crash", request=0)
        plan = FaultPlan((first, second))
        assert plan.lookup(worker=0, incarnation=0, op="repair", ordinal=0) is first
        assert not FaultPlan()
        assert FaultPlan().lookup(worker=0, incarnation=0, op="repair", ordinal=0) is None

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"action": "melt", "request": 0}, "unknown fault action"),
            ({"action": "crash"}, "missing"),
            ({"action": "crash", "request": -1}, ">= 0"),
            ({"action": "crash", "request": 0, "surprise": 1}, "unknown fault fields"),
            ("crash", "JSON object"),
        ],
    )
    def test_malformed_faults_rejected(self, payload, fragment):
        with pytest.raises(FaultPlanError, match=fragment):
            Fault.from_json(payload)

    def test_malformed_plan_documents_rejected(self, tmp_path):
        with pytest.raises(FaultPlanError, match="'faults' list"):
            FaultPlan.from_json({"rules": []})
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.load(path)
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load(tmp_path / "missing.json")


# -- protocol: retriable errors ----------------------------------------------------


class TestRetriableErrors:
    def test_error_payload_flags_retriable_codes(self):
        for code in RETRIABLE_CODES:
            assert error_payload(code, "x")["error"]["retriable"] is True
        assert error_payload("bad-request", "x")["error"]["retriable"] is False
        assert error_payload("unknown-problem", "x")["error"]["retriable"] is False

    def test_explicit_override_wins(self):
        assert error_payload("internal", "x", retriable=True)["error"]["retriable"] is True
        assert error_payload("overloaded", "x", retriable=False)["error"]["retriable"] is False

    def test_is_retriable_reads_the_field(self):
        assert is_retriable(error_payload("worker-crashed", "x"))
        assert not is_retriable(error_payload("bad-json", "x"))
        assert not is_retriable({"ok": True, "op": "ping"})

    def test_is_retriable_tolerates_old_payloads(self):
        # Responses from servers predating the field fall back to code class.
        legacy = {"ok": False, "error": {"code": "overloaded", "message": "m"}}
        assert is_retriable(legacy)
        legacy["error"]["code"] = "bad-request"
        assert not is_retriable(legacy)
        assert not is_retriable({"ok": False})
        assert not is_retriable({"ok": False, "error": "nope"})


# -- client retry policy -----------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_delays(self):
        policy = RetryPolicy(attempts=4, base_delay=0.05, factor=2.0, max_delay=2.0)
        assert policy.delays() == [0.05, 0.1, 0.2]
        assert policy.delays() == policy.delays()

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(attempts=5, base_delay=1.0, factor=10.0, max_delay=3.0)
        assert policy.delays() == [1.0, 3.0, 3.0, 3.0]

    def test_seeded_jitter_is_reproducible_and_bounded(self):
        policy = RetryPolicy(attempts=4, base_delay=1.0, factor=1.0, jitter=0.5, seed=11)
        first, second = policy.delays(), policy.delays()
        assert first == second
        assert all(1.0 <= delay <= 1.5 for delay in first)
        assert first != [1.0, 1.0, 1.0]  # jitter actually applied

    def test_attempts_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            RetryPolicy(attempts=0)


class _ScriptedServer:
    """A one-connection TCP stub answering each line from a fixed script."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.responses:
            conn, _ = self.listener.accept()
            with conn, conn.makefile("rwb") as stream:
                while self.responses:
                    line = stream.readline()
                    if not line:
                        break
                    self.requests.append(json.loads(line))
                    response = self.responses.pop(0)
                    if response is None:  # simulate a crash mid-request
                        break
                    stream.write(json.dumps(response).encode() + b"\n")
                    stream.flush()

    def close(self):
        self.listener.close()
        self.thread.join(5)


class TestClientRetry:
    def test_no_policy_is_fail_fast(self):
        server = _ScriptedServer([error_payload("overloaded", "busy")])
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                response = client.request_with_retry({"op": "ping"})
            assert response["error"]["code"] == "overloaded"
            assert len(server.requests) == 1
        finally:
            server.close()

    def test_retries_retriable_errors_with_backoff(self):
        server = _ScriptedServer(
            [
                error_payload("overloaded", "busy"),
                error_payload("shard-unavailable", "breaker"),
                {"ok": True, "op": "ping"},
            ]
        )
        slept = []
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=4, base_delay=0.05),
                sleep=slept.append,
            )
            with client:
                assert client.ping() == {"ok": True, "op": "ping"}
            assert len(server.requests) == 3
            assert slept == [0.05, 0.1]  # third attempt succeeded: no third sleep
        finally:
            server.close()

    def test_permanent_errors_return_immediately(self):
        server = _ScriptedServer([error_payload("unknown-problem", "nope")])
        slept = []
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=4, base_delay=0.05),
                sleep=slept.append,
            )
            with client:
                response = client.request_with_retry({"op": "repair", "source": ""})
            assert response["error"]["code"] == "unknown-problem"
            assert slept == []
        finally:
            server.close()

    def test_budget_exhausted_returns_last_retriable_response(self):
        server = _ScriptedServer([error_payload("overloaded", "busy")] * 2)
        slept = []
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=2, base_delay=0.05),
                sleep=slept.append,
            )
            with client:
                response = client.request_with_retry({"op": "ping"})
            assert response["error"]["code"] == "overloaded"
            assert slept == [0.05]
        finally:
            server.close()

    def test_reconnects_after_lost_connection(self):
        # First connection dies mid-request (None = close without answering);
        # the retry opens a second connection and succeeds.
        server = _ScriptedServer([None, {"ok": True, "op": "ping"}])
        try:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(attempts=3, base_delay=0.0),
                sleep=lambda _delay: None,
            )
            with client:
                assert client.ping()["ok"] is True
            assert len(server.requests) == 2
        finally:
            server.close()

    def test_connect_retries_until_listener_appears(self):
        listener_port = socket.create_server(("127.0.0.1", 0))
        port = listener_port.getsockname()[1]
        listener_port.close()  # nothing listening now

        server_box = {}

        def open_listener_then_sleep(_delay):
            if "server" not in server_box:
                server_box["server"] = _ScriptedServerAt(port, [{"ok": True, "op": "ping"}])

        client = ServiceClient(
            "127.0.0.1",
            port,
            retry=RetryPolicy(attempts=3, base_delay=0.01),
            sleep=open_listener_then_sleep,
        )
        try:
            with client:
                assert client.ping()["ok"] is True
        finally:
            server_box["server"].close()

    def test_connect_failure_reraises_without_policy(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        with pytest.raises(OSError):
            ServiceClient("127.0.0.1", port)


class _ScriptedServerAt(_ScriptedServer):
    def __init__(self, port, responses):
        self.responses = list(responses)
        self.listener = socket.create_server(("127.0.0.1", port))
        self.port = port
        self.requests = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()


# -- engine crash isolation --------------------------------------------------------


class TestEngineCrashIsolation:
    def test_unexpected_exception_becomes_internal_error_record(self, corpora):
        spec = get_problem("derivatives")
        clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
        clara.add_correct_sources(corpora["derivatives"].correct_sources)

        original = clara._repair_attempt
        calls = {"n": 0}

        def explode_once(source, budget=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic engine bug")
            return original(source, budget=budget)

        clara._repair_attempt = explode_once
        engine = BatchRepairEngine(clara, workers=1)
        report = engine.run(
            [
                BatchAttempt(attempt_id="boom", source=corpora["derivatives"].incorrect_sources[0]),
                BatchAttempt(attempt_id="fine", source=corpora["derivatives"].incorrect_sources[1]),
            ]
        )
        by_id = {record.attempt_id: record for record in report.records}
        assert by_id["boom"].status == "internal-error"
        assert "RuntimeError" in by_id["boom"].detail
        # The crash is isolated to its attempt: the next one still repairs.
        assert by_id["fine"].status == "repaired"


# -- fleet: routing and supervision ------------------------------------------------


class TestFleetRouting:
    def test_routes_repairs_and_answers_stats(self, stores, corpora, tmp_path):
        fleet = _fleet(stores, tmp_path, fleet_size=2)
        try:
            assert fleet.problems() == list(PROBLEMS)
            assert fleet.fleet_size == 2
            for name in PROBLEMS:
                response = _run(
                    fleet.handle_line(
                        _repair_line(corpora[name].incorrect_sources[0], problem=name)
                    )
                )
                assert response["ok"] is True, response
                assert response["status"] == "repaired"
                assert response["id"] == "r"
            stats = _run(fleet.handle_line('{"op": "stats", "id": "s"}'))
            assert stats["ok"] is True
            assert stats["fleet"]["size"] == 2
            assert stats["fleet"]["totals"]["served"] == 2
            shards = stats["fleet"]["shards"]
            assert shards["0"]["problems"] == ["derivatives"]
            assert shards["1"]["problems"] == ["oddTuples"]
            for shard in shards.values():
                assert shard["state"] == "serving"
                assert shard["pid"] is not None
            # Each serving worker contributed its own stats payload.
            assert set(stats["workers"]) == {"0", "1"}
            for payload in stats["workers"].values():
                assert payload["ok"] is True
        finally:
            fleet.close()

    def test_unknown_problem_and_ping(self, stores, tmp_path):
        fleet = _fleet(stores[:1], tmp_path, fleet_size=1)
        try:
            pong = _run(fleet.handle_line('{"op": "ping", "id": 7}'))
            assert pong["ok"] is True and pong["id"] == 7
            response = _run(fleet.handle_line(_repair_line("x = 1", problem="nope")))
            assert response["error"]["code"] == "unknown-problem"
            assert response["error"]["retriable"] is False
            garbage = _run(fleet.handle_line("{not json"))
            assert garbage["error"]["code"] == "bad-json"
        finally:
            fleet.close()

    def test_fleet_size_capped_and_validated(self, stores, tmp_path):
        fleet = _fleet(stores, tmp_path, fleet_size=8)
        try:
            assert fleet.fleet_size == 2  # one worker per problem at most
        finally:
            fleet.close()
        with pytest.raises(ValueError, match="fleet_size"):
            FleetService(stores, fleet_size=0)
        with pytest.raises(ValueError, match="at least one"):
            FleetService([])


def _rejection(build):
    """The exception a serving entry point raises for a bad store."""
    try:
        build()
    except (ClusterStoreError, KeyError, ValueError) as exc:
        return type(exc), exc.args
    pytest.fail("the bad store was accepted")


@pytest.mark.parametrize("kind", ["nameless", "unregistered", "stale", "duplicate"])
def test_every_serving_entry_point_rejects_a_bad_store_alike(
    kind, stores, corpora, tmp_path
):
    """``RepairService.add_problem``, ``FleetService`` and ``ProcessBatchEngine``
    run one store check, so each bad store fails with one exception and one
    message everywhere, before any worker is spawned."""
    spec = get_problem("derivatives")
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(corpora["derivatives"].correct_sources[:2])
    if kind == "nameless":
        paths = [clara.save_clusters(tmp_path / "nameless.json")]
    elif kind == "unregistered":
        paths = [clara.save_clusters(tmp_path / "mystery.json", problem="mystery")]
    elif kind == "stale":
        stale = tmp_path / "stale.json"
        stale.write_text(
            json.dumps(
                {
                    "format": "repro-clara-clusterstore",
                    "format_version": 1,
                    "problem": "derivatives",
                    "case_signature": "0" * 64,
                    "clusters": [],
                }
            )
        )
        paths = [stale]
    else:
        paths = [stores[0], stores[0]]

    def serve_in_process():
        service = RepairService(workers=1)
        try:
            for path in paths:
                service.add_problem(path)
        finally:
            service.close()

    rejections = {
        _rejection(serve_in_process),
        _rejection(lambda: FleetService(paths, fleet_size=1).close()),
    }
    if kind != "duplicate":  # a batch has one store
        rejections.add(_rejection(lambda: ProcessBatchEngine(paths[0], processes=2)))
    assert len(rejections) == 1, rejections
    ((_type, args),) = rejections
    wording = {
        "nameless": "records no problem name",
        "unregistered": "unknown problem 'mystery'",
        "stale": "format version 1",
        "duplicate": "is already served",
    }
    assert wording[kind] in args[0]


class TestFleetRecovery:
    def test_crash_mid_request_is_retried_once_and_repaired(self, stores, corpora, tmp_path):
        fleet = _fleet(
            stores[:1],
            tmp_path,
            fleet_size=1,
            faults=[Fault(action="crash", request=0, worker=0, incarnation=0)],
        )
        try:
            response = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[0]))
            )
            # The worker died mid-request; the respawn repaired the retry.
            assert response["ok"] is True and response["status"] == "repaired"
            counters = fleet.fleet_counters()
            assert counters["crashes"] == 1
            assert counters["restarts"] == 1
            assert counters["retries"] == 1
            assert counters["served"] == 1
        finally:
            fleet.close()

    def test_second_crash_surfaces_structured_worker_crashed(self, stores, corpora, tmp_path):
        fleet = _fleet(
            stores[:1],
            tmp_path,
            fleet_size=1,
            faults=[
                Fault(action="crash", request=0, worker=0, incarnation=0),
                Fault(action="crash", request=0, worker=0, incarnation=1),
            ],
        )
        try:
            response = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[0]))
            )
            # Retried once, crashed again: a structured retriable error, not
            # a dropped request.
            assert response["ok"] is False
            assert response["error"]["code"] == "worker-crashed"
            assert response["error"]["retriable"] is True
            assert response["id"] == "r"
            assert fleet.fleet_counters()["crashes"] == 2
            # Incarnation 2 has no fault: the shard recovers for new traffic.
            supervisor = fleet.shard_for("derivatives")
            assert supervisor.wait_ready(30)
            recovered = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[1]))
            )
            assert recovered["status"] == "repaired"
        finally:
            fleet.close()

    def test_hung_worker_is_killed_and_request_retried(self, stores, corpora, tmp_path):
        fleet = _fleet(
            stores[:1],
            tmp_path,
            fleet_size=1,
            kill_after=0.3,
            faults=[Fault(action="hang", request=0, worker=0, incarnation=0, seconds=3600)],
        )
        try:
            response = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[0]))
            )
            assert response["ok"] is True and response["status"] == "repaired"
            counters = fleet.fleet_counters()
            assert counters["kills"] == 1
            assert counters["crashes"] == 1  # the kill is observed as a death
            assert counters["retries"] == 1
        finally:
            fleet.close()

    def test_router_answers_the_deadline_and_the_watchdog_kills_the_hung_worker(
        self, stores, corpora, tmp_path
    ):
        fleet = _fleet(
            stores[:1],
            tmp_path,
            fleet_size=1,
            kill_after=1.5,
            faults=[Fault(action="hang", request=0, worker=0, incarnation=0, seconds=3600)],
        )
        try:
            line = json.dumps(
                {
                    "op": "repair",
                    "problem": "derivatives",
                    "source": corpora["derivatives"].incorrect_sources[0],
                    "id": "slow",
                    "deadline": 0.5,
                }
            )
            started = time.monotonic()
            response = _run(fleet.handle_line(line))
            waited = time.monotonic() - started
            # The router answers on time, with the in-process deadline answer.
            assert response == {
                "ok": True,
                "op": "repair",
                "id": "slow",
                "problem": "derivatives",
                "revision": read_store_header(stores[0]).revision,
                "status": "timeout",
                "detail": "deadline of 0.5s exceeded",
            }
            assert waited < 0.5 + 0.75
            # The worker stayed busy with the request, so the watchdog sees it.
            limit = time.monotonic() + 30
            while fleet.fleet_counters()["kills"] < 1 and time.monotonic() < limit:
                time.sleep(0.05)
            assert fleet.fleet_counters()["kills"] == 1
            supervisor = fleet.shard_for("derivatives")
            assert supervisor.wait_ready(30)
            recovered = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[1]))
            )
            assert recovered["ok"] is True and recovered["status"] == "repaired"
            # The answered request was dropped, not repaired again for nobody
            # on the respawn: only the next request was served.
            counters = fleet.fleet_counters()
            assert counters["kills"] == 1
            assert counters["retries"] == 0
            assert counters["served"] == 1
        finally:
            fleet.close()

    def test_flapping_shard_trips_breaker_while_other_shard_serves(
        self, stores, corpora, tmp_path
    ):
        # worker 0 crashes on its first repair in *every* incarnation
        # (incarnation omitted); worker 1 is healthy throughout.
        fleet = _fleet(
            stores,
            tmp_path,
            fleet_size=2,
            faults=[Fault(action="crash", request=0, worker=0)],
            backoff=BackoffPolicy(base=0.02, factor=2.0, max_strikes=3),
        )
        try:
            first = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[0]))
            )
            assert first["error"]["code"] == "worker-crashed"
            supervisor = fleet.shard_for("derivatives")
            deadline = time.time() + 30
            while supervisor.state != "unavailable" and time.time() < deadline:
                response = _run(
                    fleet.handle_line(
                        _repair_line(corpora["derivatives"].incorrect_sources[0])
                    )
                )
                assert response["ok"] is False
            assert supervisor.state == "unavailable"
            tripped = _run(
                fleet.handle_line(_repair_line(corpora["derivatives"].incorrect_sources[1]))
            )
            assert tripped["error"]["code"] == "shard-unavailable"
            assert tripped["error"]["retriable"] is True
            assert fleet.fleet_counters()["shed"] >= 1
            # The healthy shard is untouched by its neighbour's breaker.
            healthy = _run(
                fleet.handle_line(
                    _repair_line(corpora["oddTuples"].incorrect_sources[0], problem="oddTuples")
                )
            )
            assert healthy["ok"] is True and healthy["status"] == "repaired"
            stats = _run(fleet.handle_line('{"op": "stats"}'))
            assert stats["fleet"]["shards"]["0"]["state"] == "unavailable"
            assert stats["fleet"]["shards"]["1"]["state"] == "serving"
            assert "error" in stats["workers"]["0"]
        finally:
            fleet.close()

    def test_close_fails_queued_requests_with_draining(self, stores, corpora, tmp_path):
        fleet = _fleet(
            stores[:1],
            tmp_path,
            fleet_size=1,
            faults=[Fault(action="delay", request=0, worker=0, incarnation=0, seconds=1.0)],
        )
        try:
            supervisor = fleet.shard_for("derivatives")
            slow = supervisor.submit(
                _repair_line(corpora["derivatives"].incorrect_sources[0]), request_id="slow"
            )
            # Wait for the writer thread to hand the line to the worker, so
            # close() observes it in flight rather than still queued.
            deadline = time.time() + 5
            while supervisor._outbox and time.time() < deadline:
                time.sleep(0.01)
        finally:
            fleet.close()
        # The in-flight request was drained to completion, not dropped.
        response = slow.result(timeout=5)
        assert response["ok"] is True and response["status"] == "repaired"
        late = supervisor.submit(_repair_line("x", request_id="late"), request_id="late")
        assert late.result(timeout=5)["error"]["code"] == "draining"

    def test_failed_spawn_resolves_every_request(self, stores):
        backoff = BackoffPolicy(base=0.02, factor=2.0, max_strikes=3)
        supervisor = WorkerSupervisor(
            0,
            stores[:1],
            backoff=backoff,
            kill_after=None,
            heartbeat_interval=None,
            python="/nonexistent/python",
        )
        supervisor.start()
        try:
            futures = [
                supervisor.submit(json.dumps({"op": "ping", "id": i}), request_id=i)
                for i in range(3)
            ]
            for request_id, future in enumerate(futures):
                response = future.result(timeout=backoff.budget() + 5)
                assert response["ok"] is False
                assert response["error"]["code"] == "shard-unavailable"
                assert response["id"] == request_id
            assert supervisor.state == "unavailable"
            assert supervisor.counters["crashes"] == backoff.max_strikes
        finally:
            supervisor.stop()

    def test_failed_respawn_resolves_queued_requests(self, stores):
        backoff = BackoffPolicy(base=0.02, factor=2.0, max_strikes=3)
        supervisor = WorkerSupervisor(
            0, stores[:1], backoff=backoff, kill_after=None, heartbeat_interval=None
        )
        supervisor.start()
        try:
            assert supervisor.wait_ready(60) and supervisor.state == "serving"
            supervisor.python = "/nonexistent/python"
            os.kill(supervisor.pid, signal.SIGKILL)
            future = supervisor.submit('{"op": "ping", "id": "p"}', request_id="p")
            response = future.result(timeout=backoff.budget() + 5)
            assert response["ok"] is False
            assert response["error"]["code"] in ("worker-crashed", "shard-unavailable")
            assert supervisor.state == "unavailable"
        finally:
            supervisor.stop()


# -- serve --fleet end to end ------------------------------------------------------


class TestServeFleetCli:
    def test_sigterm_drains_inflight_and_removes_ready_file(
        self, stores, corpora, tmp_path
    ):
        plan = FaultPlan(
            (Fault(action="delay", request=0, worker=0, incarnation=0, seconds=2.0),)
        ).save(tmp_path / "plan.json")
        ready = tmp_path / "ready.txt"
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--clusters", str(stores[0]),
                "--fleet", "1", "--port", "0",
                "--ready-file", str(ready),
                "--fault-plan", str(plan),
                "--drain-timeout", "20",
            ],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 60
            while not ready.exists():
                assert proc.poll() is None, "serve exited before becoming ready"
                assert time.time() < deadline, "serve never became ready"
                time.sleep(0.1)
            host, port = ready.read_text().split()
            inflight = ServiceClient(host, int(port), timeout=60)
            bystander = ServiceClient(host, int(port), timeout=60)
            bystander.ping()
            results = {}

            def drive():
                results["inflight"] = inflight.request(
                    {
                        "op": "repair",
                        "source": corpora["derivatives"].incorrect_sources[0],
                        "id": "inflight",
                    }
                )

            thread = threading.Thread(target=drive)
            thread.start()
            time.sleep(0.5)  # the repair is inside its 2s delay fault
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.3)  # drain is now active, repair still in flight
            late = bystander.request({"op": "ping", "id": "late"})
            thread.join(timeout=60)
            inflight.close()
            bystander.close()

            # Zero lost requests: the in-flight repair completed during the
            # drain window, the late line got a retriable refusal.
            assert results["inflight"]["ok"] is True
            assert results["inflight"]["status"] == "repaired"
            assert late["ok"] is False
            assert late["error"]["code"] == "draining"
            assert late["error"]["retriable"] is True
            assert late["id"] == "late"
            assert proc.wait(timeout=30) == 0
            assert not ready.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
