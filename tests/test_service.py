"""The repair service: protocol failure modes, deadlines, warm caches and
hot reload.

TCP tests run a real :class:`~repro.service.server.RepairServer` on an
ephemeral port in a background thread and talk to it through the blocking
:class:`~repro.service.client.ServiceClient`; service-only tests drive
:meth:`RepairService.handle_line` directly.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import shutil
import threading
import time

import pytest

from repro import Clara
from repro.cli import main as cli_main
from repro.clusterstore import ClusterStore
from repro.clusterstore.segments import segment_dir
from repro.datasets import generate_corpus, get_problem
from repro.service import RepairServer, RepairService, ServiceClient

PROBLEM = "derivatives"


@pytest.fixture(scope="module")
def spec():
    return get_problem(PROBLEM)


@pytest.fixture(scope="module")
def corpus(spec):
    return generate_corpus(spec, 8, 3, seed=7)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, spec, corpus):
    path = tmp_path_factory.mktemp("service") / "derivatives.json"
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(corpus.correct_sources)
    clara.save_clusters(path, problem=PROBLEM)
    return path


@contextlib.contextmanager
def running_server(service):
    """Serve on an ephemeral port in a daemon thread; always torn down."""
    server = RepairServer(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(on_ready=lambda _s: ready.set())),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "server did not come up"
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(10)
        service.close()
        assert not thread.is_alive()


def _copy_store(src, dst):
    """Copy a v3 store: the header file plus its sibling segment directory."""
    shutil.copy(src, dst)
    shutil.copytree(segment_dir(src), segment_dir(dst))
    return dst


def _repair_line(source, request_id="r"):
    return json.dumps(
        {"op": "repair", "problem": PROBLEM, "source": source, "id": request_id}
    )


# -- warm-cache acceptance ------------------------------------------------------------


def test_second_identical_request_runs_zero_new_ted_dps(store_path, corpus):
    """The acceptance criterion: a warm service answers a duplicate request
    entirely from the repair memo — zero new TED DPs, one repair-cache hit,
    identical payload."""
    service = RepairService(workers=1)
    runtime = service.add_problem(store_path)
    incorrect = corpus.incorrect_sources[0]

    first = asyncio.run(service.handle_line(_repair_line(incorrect, "first")))
    assert first["ok"] and first["status"] == "repaired"

    dp_before = runtime.caches.ted.counters()["dp_runs"]
    hits_before = runtime.caches.stats.repair_hits
    second = asyncio.run(service.handle_line(_repair_line(incorrect, "second")))
    assert second["ok"] and second["status"] == "repaired"

    assert runtime.caches.ted.counters()["dp_runs"] == dp_before
    assert runtime.caches.stats.repair_hits == hits_before + 1
    for field in ("status", "cost", "relative_size", "num_modified", "feedback"):
        assert second[field] == first[field]
    service.close()


# -- protocol failure modes -----------------------------------------------------------


def test_malformed_line_yields_structured_error_not_disconnect(store_path, corpus):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    with running_server(service) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.send_raw("this is not json")
            error = client.read_response()
            assert error["ok"] is False
            assert error["error"]["code"] == "bad-json"
            # The connection survives; a correct request still succeeds.
            assert client.ping()["ok"] is True

            client.send_raw(json.dumps({"op": "repair", "problem": PROBLEM}))
            error = client.read_response()
            assert error["error"]["code"] == "bad-request"
            assert "source" in error["error"]["message"]

            response = client.request(
                {"op": "repair", "problem": "nope", "source": "x = 1", "id": 7}
            )
            assert response["error"]["code"] == "unknown-problem"
            assert response["id"] == 7

            response = client.request({"op": "frobnicate"})
            assert response["error"]["code"] == "unknown-op"


def test_deadline_exceeded_yields_timeout_status(store_path, corpus):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    with running_server(service) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            response = client.repair(
                corpus.incorrect_sources[0], problem=PROBLEM, deadline=0.0
            )
            assert response["ok"] is True
            assert response["status"] == "timeout"
            # Deadlines are enforced twice — the asyncio timer (which adds a
            # "deadline exceeded" detail) and the engine budget (which
            # yields the paper's bare timeout status); either layer may win
            # the race at deadline 0, and both must surface as "timeout".
            if response["detail"]:
                assert "deadline" in response["detail"]


def test_overload_is_rejected_with_structured_error(store_path, corpus):
    service = RepairService(workers=1, queue_size=1)
    runtime = service.add_problem(store_path)
    state = runtime.snapshot()
    gate, started = threading.Event(), threading.Event()
    original_run = state.engine.run

    def gated_run(attempts, **kwargs):
        started.set()
        assert gate.wait(10)
        return original_run(attempts, **kwargs)

    state.engine.run = gated_run
    try:
        with running_server(service) as server:
            slow_response = {}

            def slow_request():
                with ServiceClient("127.0.0.1", server.port) as client:
                    slow_response.update(
                        client.repair(corpus.incorrect_sources[0], problem=PROBLEM)
                    )

            thread = threading.Thread(target=slow_request)
            thread.start()
            assert started.wait(10)
            with ServiceClient("127.0.0.1", server.port) as client:
                rejected = client.repair(corpus.incorrect_sources[1], problem=PROBLEM)
            assert rejected["ok"] is False
            assert rejected["error"]["code"] == "overloaded"
            gate.set()
            thread.join(10)
            assert slow_response["status"] == "repaired"
    finally:
        gate.set()
    assert service.stats.rejected_overload == 1


# -- hot reload -----------------------------------------------------------------------


def test_hot_reload_mid_request_keeps_serving_the_old_revision(
    tmp_path, spec, corpus, store_path
):
    own_store = tmp_path / "derivatives.json"
    _copy_store(store_path, own_store)
    service = RepairService(workers=2)
    runtime = service.add_problem(own_store)
    assert runtime.revision == 0

    state = runtime.snapshot()
    gate, started = threading.Event(), threading.Event()
    original_run = state.engine.run

    def gated_run(attempts, **kwargs):
        started.set()
        assert gate.wait(10)
        return original_run(attempts, **kwargs)

    state.engine.run = gated_run
    try:
        with running_server(service) as server:
            in_flight_response = {}

            def in_flight_request():
                with ServiceClient("127.0.0.1", server.port) as client:
                    in_flight_response.update(
                        client.repair(corpus.incorrect_sources[0], problem=PROBLEM)
                    )

            thread = threading.Thread(target=in_flight_request)
            thread.start()
            assert started.wait(10)

            # Update the store on disk (revision 0 -> 1) and hot-reload
            # through a second connection while the first request hangs.
            store = ClusterStore.open(own_store, spec.cases)
            assert store.add_correct_source(corpus.correct_sources[0]).accepted
            store.save()
            with ServiceClient("127.0.0.1", server.port) as client:
                reloaded = client.reload(PROBLEM)
            assert reloaded["ok"] is True
            assert reloaded["previous_revision"] == 0
            assert reloaded["revision"] == 1
            assert runtime.revision == 1

            gate.set()
            thread.join(10)
            # The in-flight request is never dropped.  It was admitted on
            # the old lazily-opened generation, whose segments were
            # rewritten on disk before it paged them in; the paging check
            # detected that and the service re-ran it on the reloaded
            # generation, so it reports the revision that answered.
            assert in_flight_response["status"] == "repaired"
            assert in_flight_response["revision"] == 1

            # New requests see the new revision.
            with ServiceClient("127.0.0.1", server.port) as client:
                fresh = client.repair(corpus.incorrect_sources[0], problem=PROBLEM)
            assert fresh["revision"] == 1
    finally:
        gate.set()


def test_reload_evicts_the_replaced_pipelines_repair_memos(
    tmp_path, spec, corpus, store_path
):
    """Each reload retires a pipeline generation; its repair memos must be
    evicted from the shared caches, not stranded forever."""
    own_store = tmp_path / "derivatives.json"
    _copy_store(store_path, own_store)
    service = RepairService(workers=1)
    runtime = service.add_problem(own_store)

    asyncio.run(service.handle_line(_repair_line(corpus.incorrect_sources[0])))
    assert runtime.caches.entry_counts()["repairs"] == 1

    service.reload(PROBLEM)
    assert runtime.caches.entry_counts()["repairs"] == 0

    # The new generation memoizes afresh (and still answers correctly).
    response = asyncio.run(service.handle_line(_repair_line(corpus.incorrect_sources[0])))
    assert response["status"] == "repaired"
    assert runtime.caches.entry_counts()["repairs"] == 1
    service.close()


def test_add_problem_rejects_a_duplicate_problem_name(store_path):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    with pytest.raises(ValueError, match="already served"):
        service.add_problem(store_path)
    service.close()


# -- server lifecycle -----------------------------------------------------------------


def test_shutdown_op_stops_the_server(store_path):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    server = RepairServer(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve(on_ready=lambda _s: ready.set())),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    with ServiceClient("127.0.0.1", server.port) as client:
        assert client.shutdown()["ok"] is True
    thread.join(10)
    assert not thread.is_alive()
    service.close()


def test_stats_report_revisions_and_cache_counters(store_path, corpus):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    asyncio.run(service.handle_line(_repair_line(corpus.incorrect_sources[0])))
    stats = asyncio.run(service.handle_line(json.dumps({"op": "stats"})))
    assert stats["ok"] is True
    assert stats["service"]["repairs"] == 1
    problem_stats = stats["problems"][PROBLEM]
    assert problem_stats["revision"] == 0
    assert problem_stats["clusters"] > 0
    assert "dp_runs" in problem_stats["ted"]
    # Stores are opened header-only; one repair pages segments in on demand.
    paging = problem_stats["store_paging"]
    assert paging["segments_total"] > 0
    assert 1 <= paging["segments_loaded"] <= paging["segments_total"]
    service.close()


def test_stats_sections_speak_the_counters_payload_vocabulary(store_path, corpus):
    service = RepairService(workers=1, profile=True)
    runtime = service.add_problem(store_path)
    asyncio.run(service.handle_line(_repair_line(corpus.incorrect_sources[0])))
    stats = asyncio.run(service.handle_line(json.dumps({"op": "stats"})))
    clara = runtime.snapshot().engine.clara
    for section in stats["problems"].values():
        assert set(section) == set(clara.counters_payload()) | {
            "revision",
            "clusters",
            "cache",
        }
    # profile=True attaches a profiler, so the repair shows up in phases.
    assert stats["problems"][PROBLEM]["phases"]["counters"]["parse"] >= 1
    service.close()


def test_single_problem_services_accept_requests_without_a_problem_field(
    store_path, corpus
):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    response = asyncio.run(
        service.handle_line(
            json.dumps({"op": "repair", "source": corpus.incorrect_sources[0]})
        )
    )
    assert response["ok"] is True
    assert response["problem"] == PROBLEM
    service.close()


# -- serve CLI ------------------------------------------------------------------------


def test_serve_exits_2_on_missing_store(tmp_path, capsys):
    assert cli_main(["serve", "--clusters", str(tmp_path / "absent.json")]) == 2
    assert "cannot read cluster store" in capsys.readouterr().err


def test_serve_exits_2_on_old_format_store(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(
        json.dumps(
            {
                "format": "repro-clara-clusterstore",
                "format_version": 1,
                "problem": PROBLEM,
                "language": "python",
                "case_signature": "0" * 64,
                "cluster_count": 0,
                "total_members": 0,
                "clusters": [],
            }
        )
        + "\n"
    )
    assert cli_main(["serve", "--clusters", str(old)]) == 2
    err = capsys.readouterr().err
    assert "format version 1" in err
    assert "rebuild" in err


def test_serve_exits_2_on_unknown_problem(tmp_path, spec, corpus, capsys):
    path = tmp_path / "mystery.json"
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(corpus.correct_sources[:2])
    clara.save_clusters(path, problem="not-a-registered-problem")
    assert cli_main(["serve", "--clusters", str(path)]) == 2
    assert "not-a-registered-problem" in capsys.readouterr().err


def test_serve_round_trip_through_the_cli_entry_point(tmp_path, store_path, corpus):
    """End to end through ``main()``: serve on an ephemeral port announced
    via --ready-file, repair one attempt over TCP, shut down cleanly with
    exit code 0."""
    ready_file = tmp_path / "ready"
    result = {}

    def run_cli():
        result["exit"] = cli_main(
            [
                "serve",
                "--clusters",
                str(store_path),
                "--port",
                "0",
                "--workers",
                "1",
                "--ready-file",
                str(ready_file),
            ]
        )

    thread = threading.Thread(target=run_cli, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not ready_file.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ready_file.exists(), "serve never wrote its ready file"
    host, port = ready_file.read_text().split()

    with ServiceClient(host, int(port)) as client:
        assert client.ping()["ok"] is True
        response = client.repair(corpus.incorrect_sources[0], problem=PROBLEM)
        assert response["status"] == "repaired"
        assert client.shutdown()["ok"] is True
    thread.join(15)
    assert not thread.is_alive()
    assert result["exit"] == 0
