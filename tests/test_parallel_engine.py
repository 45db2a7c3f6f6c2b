"""Process-parallel batch engine: differential, determinism and crash tests.

The contract under test (:mod:`repro.engine.parallel`): dealing a corpus's
distinct sources round-robin across worker subprocesses and merging the
shard streams yields a report *field-identical* to the in-process engine
at any process count, and merged ``--profile`` counter sections *equal*
to the key-wise sum of in-process runs, one per shard, each over that
shard's attempts in shard order (:mod:`helpers.parallel`), independent
of ``PYTHONHASHSEED``.  A worker that dies mid-shard is retried on its
respawn, and a shard whose worker keeps dying surfaces structured
``internal-error`` records instead of hanging the merge.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.clusterstore.segments import skeleton_digest
from repro.core.pipeline import Clara
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, ProcessBatchEngine
from repro.engine.parallel import merge_store_paging, shard_plan
from repro.fleet import Fault, FaultPlan, WorkerSupervisor, supervisor
from repro.frontend import parse_source

from helpers.differential import report_rows
from helpers.parallel import counter_sections, in_process_run, per_shard_sums

#: A correct two-loop derivatives solution — a CFG shape the generated pool
#: never emits, giving the store a second skeleton family (and segment).
TWO_LOOP = (
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

TWO_LOOP_BROKEN = TWO_LOOP.replace("float(i*poly[i])", "float(poly[i])")

SINGLE_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for e in range(len(poly)):\n"
    "        result.append(float(poly[e]*e))\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

#: Non-ASCII identifiers and comments must round-trip the worker pipes.
NON_ASCII = (
    "def computeDeriv(poly):\n"
    "    # dérivée du polynôme\n"
    "    rés = []\n"
    "    for i in range(len(poly)):\n"
    "        rés.append(float(i*poly[i]))\n"
    "    if rés == []:\n"
    "        return [0.0]\n"
    "    return rés\n"
)

UNPARSEABLE = "def computeDeriv(poly:\n    return\n"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A derivatives store with two skeleton families, plus its test corpus."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 0, seed=2018)
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    path = clara.save_clusters(
        tmp_path_factory.mktemp("parallel") / "derivatives.json",
        problem="derivatives",
    )
    attempts = [
        BatchAttempt("single-a", SINGLE_LOOP_BROKEN),
        BatchAttempt("single-b", SINGLE_LOOP_BROKEN),  # duplicate: cache hit
        BatchAttempt("two-loop", TWO_LOOP_BROKEN),
        BatchAttempt("non-ascii", NON_ASCII),
        BatchAttempt("unparseable", UNPARSEABLE),
    ]
    return problem, path, attempts


# -- differential: process engine vs in-process engines ------------------------------


def test_process_report_matches_in_process(store):
    problem, path, attempts = store
    baseline, _ = in_process_run(problem, path, attempts)

    process_report = ProcessBatchEngine(path, processes=2).run(attempts)

    assert report_rows(process_report) == report_rows(baseline)
    assert [r.attempt_id for r in process_report.records] == [
        a.attempt_id for a in attempts
    ]
    # Detail strings (parse-error text etc.) also survive the pipe.
    assert [r.detail for r in process_report.records] == [
        r.detail for r in baseline.records
    ]


def test_counter_sections_identical_across_process_counts(store):
    """Every counter section equals the sum of in-process runs over the
    shards: at one process that is the single-process run itself."""
    problem, path, attempts = store
    _baseline, single = in_process_run(problem, path, attempts)
    assert per_shard_sums(problem, path, attempts, 1) == single

    for processes in (1, 2, 4):
        report = ProcessBatchEngine(path, processes=processes, profile=True).run(
            attempts
        )
        assert report.profile is not None
        merged = counter_sections(report.cache_stats, report.profile)
        expected = per_shard_sums(problem, path, attempts, processes)
        # Every section, the solve memo's misses included.
        assert merged == expected, f"counter sections diverged at {processes} processes"


def test_empty_corpus_spawns_nothing(store):
    _problem, path, _attempts = store
    report = ProcessBatchEngine(path, processes=4).run([])
    assert report.records == [] and report.outcomes == []


# -- shard planning ------------------------------------------------------------------


def test_shard_plan_deals_distinct_sources_round_robin():
    items = [
        BatchAttempt("a", SINGLE_LOOP_BROKEN),
        BatchAttempt("b", TWO_LOOP_BROKEN),
        BatchAttempt("c", NON_ASCII),  # same skeleton as SINGLE_LOOP_BROKEN
        BatchAttempt("d", TWO_LOOP),
        BatchAttempt("e", UNPARSEABLE),
    ]
    # First-appearance order, next shard in turn; skeletons play no part.
    assert shard_plan(items, 2) == [[0, 2, 4], [1, 3]]
    assert shard_plan(items, 3) == [[0, 3], [1, 4], [2]]
    assert shard_plan(items, 1) == [[0, 1, 2, 3, 4]]
    # Fewer distinct sources than processes leaves shards empty.
    assert shard_plan(items[:2], 4) == [[0], [1], [], []]
    assert shard_plan([], 2) == [[], []]


def test_shard_plan_keeps_byte_identical_duplicates_together():
    items = [
        BatchAttempt("a", SINGLE_LOOP_BROKEN),
        BatchAttempt("b", TWO_LOOP_BROKEN),
        BatchAttempt("c", SINGLE_LOOP_BROKEN),
        BatchAttempt("d", NON_ASCII),
        BatchAttempt("e", TWO_LOOP_BROKEN),
        # One trailing newline more: another source, dealt on its own.
        BatchAttempt("f", SINGLE_LOOP_BROKEN + "\n"),
    ]
    # A repeat follows its first copy and takes no turn of its own.
    assert shard_plan(items, 2) == [[0, 2, 3], [1, 4, 5]]


def test_shard_plan_treats_unparseable_sources_like_any_other():
    other = "def g(:\n  pass\n"
    items = [
        BatchAttempt("a", UNPARSEABLE),
        BatchAttempt("b", SINGLE_LOOP_BROKEN),
        BatchAttempt("c", UNPARSEABLE),
        BatchAttempt("d", other),
        BatchAttempt("e", TWO_LOOP_BROKEN),
    ]
    assert shard_plan(items, 2) == [[0, 2, 3], [1, 4]]


def test_one_skeleton_corpus_splits_into_balanced_shards():
    """The generated derivatives attempts that share the commonest CFG
    skeleton (skeleton sharding put them all on one worker) split into
    shards whose sizes differ by at most one."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 0, 40, seed=7)
    by_skeleton: dict[str, list[str]] = {}
    for source in dict.fromkeys(corpus.incorrect_sources):
        try:
            program = parse_source(source, language=problem.language, entry=problem.entry)
        except Exception:  # noqa: BLE001 - unparseable attempts have no skeleton
            continue
        by_skeleton.setdefault(skeleton_digest(program), []).append(source)
    sources = max(by_skeleton.values(), key=len)
    assert len(sources) >= 10, "the corpus needs a large one-skeleton class"
    items = [BatchAttempt(f"attempt-{index}", source) for index, source in enumerate(sources)]
    for processes in (2, 3, 4):
        sizes = [len(shard) for shard in shard_plan(items, processes)]
        assert sum(sizes) == len(items)
        assert max(sizes) - min(sizes) <= 1, (processes, sizes)


def test_merge_store_paging_sums_loads_and_checks_totals():
    merged = merge_store_paging(
        [
            {
                "segments_total": 4,
                "segments_loaded": 1,
                "segments_skipped": 3,
                "clusters_total": 6,
                "clusters_loaded": 2,
            },
            None,  # a worker without a lazy store reports nothing
            {
                "segments_total": 4,
                "segments_loaded": 2,
                "segments_skipped": 2,
                "clusters_total": 6,
                "clusters_loaded": 3,
            },
        ]
    )
    assert merged == {
        "segments_total": 4,
        "segments_loaded": 3,
        "segments_skipped": 5,
        "clusters_total": 6,
        "clusters_loaded": 5,
    }
    # Two workers that page in the same segments each count them: loads may
    # sum past the totals, and nothing goes negative.
    both = {
        "segments_total": 4,
        "segments_loaded": 3,
        "segments_skipped": 1,
        "clusters_total": 6,
        "clusters_loaded": 5,
    }
    assert merge_store_paging([both, dict(both)]) == {
        "segments_total": 4,
        "segments_loaded": 6,
        "segments_skipped": 2,
        "clusters_total": 6,
        "clusters_loaded": 10,
    }
    assert merge_store_paging([None, None]) is None
    with pytest.raises(ValueError, match="disagree"):
        merge_store_paging(
            [
                {"segments_total": 4, "segments_loaded": 0, "clusters_total": 6,
                 "clusters_loaded": 0, "segments_skipped": 4},
                {"segments_total": 5, "segments_loaded": 0, "clusters_total": 6,
                 "clusters_loaded": 0, "segments_skipped": 5},
            ]
        )


# -- constructor validation ----------------------------------------------------------


def test_process_engine_rejects_anonymous_store(tmp_path):
    problem = get_problem("derivatives")
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources([TWO_LOOP])
    path = clara.save_clusters(tmp_path / "anon.json")  # no problem name
    with pytest.raises(ValueError, match="records no problem name"):
        ProcessBatchEngine(path, processes=2)


def test_process_engine_rejects_language_mismatch(store):
    _problem, path, _attempts = store
    with pytest.raises(ValueError, match="configured for 'c'"):
        ProcessBatchEngine(path, processes=2, language="c")


def test_process_engine_rejects_bad_process_count(store):
    _problem, path, _attempts = store
    with pytest.raises(ValueError, match="processes must be >= 1"):
        ProcessBatchEngine(path, processes=0)


# -- crash surfacing -----------------------------------------------------------------


def _with_fault_plan(monkeypatch, tmp_path, *faults):
    """Make every shard supervisor the engine starts inject ``faults``."""
    plan_path = FaultPlan(faults).save(tmp_path / "plan.json")
    monkeypatch.setattr(
        supervisor,
        "WorkerSupervisor",
        functools.partial(WorkerSupervisor, fault_plan_path=plan_path),
    )


def test_worker_crash_is_retried_on_the_respawn(store, monkeypatch, tmp_path):
    problem, path, attempts = store
    baseline, _ = in_process_run(problem, path, attempts)
    expected = per_shard_sums(problem, path, attempts, 2)
    shards = shard_plan(attempts, 2)
    assert len(shards[0]) > 2, "crash test needs a shard with several attempts"

    # Shard 0's first worker dies on its second repair; the respawn
    # answers everything that was in flight.
    _with_fault_plan(
        monkeypatch,
        tmp_path,
        Fault(action="crash", request=1, worker=0, incarnation=0),
    )
    report = ProcessBatchEngine(path, processes=2, profile=True).run(attempts)

    assert report_rows(report) == report_rows(baseline)
    assert [r.attempt_id for r in report.records] == [a.attempt_id for a in attempts]
    # Counters cover each shard's last incarnation only: the parse of the
    # one attempt shard 0's first worker answered died with it.
    parses = report.profile["phases"]["counters"]["parse"]
    assert parses == expected["phases"]["parse"] - 1


def test_flapping_worker_surfaces_internal_error_records(store, monkeypatch, tmp_path):
    problem, path, attempts = store
    baseline, _ = in_process_run(problem, path, attempts)
    shards = shard_plan(attempts, 2)

    # Every incarnation of shard 0's worker dies on its first repair.
    _with_fault_plan(monkeypatch, tmp_path, Fault(action="crash", request=0, worker=0))
    report = ProcessBatchEngine(path, processes=2).run(attempts)

    assert len(report.records) == len(attempts)
    for index in shards[0]:
        record = report.records[index]
        assert record.attempt_id == attempts[index].attempt_id
        assert record.status == "internal-error"
        assert "shard 0" in record.detail
    # The healthy shard is untouched.
    rows = report_rows(report)
    expected = report_rows(baseline)
    for index in shards[1]:
        assert rows[index] == expected[index]


# -- PYTHONHASHSEED independence -----------------------------------------------------

_DETERMINISM_SCRIPT = r"""
import json, sys
from repro.core.pipeline import Clara
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, ProcessBatchEngine

two_loop = @TWO_LOOP@
attempts = [
    BatchAttempt("s", @SINGLE@),
    BatchAttempt("t", two_loop.replace("float(i*poly[i])", "float(poly[i])")),
]
problem = get_problem("derivatives")
corpus = generate_corpus(problem, 6, 0, seed=2018)
clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
clara.add_correct_sources(list(corpus.correct_sources) + [two_loop])
path = clara.save_clusters(sys.argv[1] + "/store.json", problem="derivatives")
report = ProcessBatchEngine(path, processes=2, profile=True).run(attempts)
rows = [
    [r.attempt_id, r.status, r.cost, r.relative_size, r.num_modified, r.feedback]
    for r in report.records
]
sections = {
    "phases": report.profile["phases"]["counters"],
    "cache": report.cache_stats.as_dict(),
    "retrieval": report.profile["retrieval"],
    "store_paging": report.profile["store_paging"],
}
print(json.dumps({"rows": rows, "sections": sections}, sort_keys=True))
"""


def test_merged_counters_are_hashseed_independent(tmp_path):
    script = _DETERMINISM_SCRIPT.replace("@TWO_LOOP@", repr(TWO_LOOP)).replace(
        "@SINGLE@", repr(SINGLE_LOOP_BROKEN)
    )
    outputs = []
    for seed in ("0", "101"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        work = tmp_path / f"seed-{seed}"
        work.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", script, str(work)],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.strip().splitlines()[-1])
    assert outputs[0] == outputs[1], "merged output varies with PYTHONHASHSEED"
