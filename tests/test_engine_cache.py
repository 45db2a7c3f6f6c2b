"""Tests for the engine layer: caches, batch engine, and their equivalence
with the sequential pipeline."""

from __future__ import annotations

from repro import Clara, InputCase, parse_source
from repro.engine import (
    BatchAttempt,
    BatchRecord,
    BatchRepairEngine,
    BatchReport,
    CacheStats,
    RepairCaches,
)
from repro.engine.cache import case_set_key, freeze_key


# -- structure keys ------------------------------------------------------------------


def test_structure_key_identical_for_identical_sources(paper_sources):
    p1 = parse_source(paper_sources["C1"])
    p2 = parse_source(paper_sources["C1"])
    assert p1 is not p2
    assert p1.structure_key() == p2.structure_key()
    assert hash(p1.structure_key()) == hash(p2.structure_key())


def test_structure_key_differs_for_different_programs(paper_sources):
    p1 = parse_source(paper_sources["C1"])
    p2 = parse_source(paper_sources["C2"])
    assert p1.structure_key() != p2.structure_key()


def test_freeze_key_handles_nested_containers():
    frozen = freeze_key([1, [2, 3], {"b": 2, "a": [1]}, {4, 5}])
    assert hash(frozen) == hash(freeze_key((1, (2, 3), {"a": (1,), "b": 2}, {5, 4})))


# -- trace/correctness cache ----------------------------------------------------------


def test_program_key_memo_does_not_pin_programs(paper_sources):
    import gc
    import weakref

    caches = RepairCaches()
    program = parse_source(paper_sources["C1"])
    caches.program_key(program)
    assert len(caches._program_keys) == 1
    ref = weakref.ref(program)
    del program
    gc.collect()
    assert ref() is None
    assert len(caches._program_keys) == 0


def test_identical_programs_hit_trace_cache(deriv_cases, paper_sources):
    caches = RepairCaches()
    first = parse_source(paper_sources["C1"])
    duplicate = parse_source(paper_sources["C1"])

    assert caches.is_correct(first, deriv_cases) is True
    misses_after_first = caches.stats.trace_misses
    assert misses_after_first >= 1

    assert caches.is_correct(duplicate, deriv_cases) is True
    assert caches.stats.trace_misses == misses_after_first
    assert caches.stats.trace_hits >= 1


def test_trace_cache_invalidates_when_cases_differ(deriv_cases, paper_sources):
    caches = RepairCaches()
    program = parse_source(paper_sources["C1"])
    assert caches.is_correct(program, deriv_cases) is True

    # A case set demanding a wrong answer must not reuse the old verdict.
    wrong_cases = [
        InputCase(args=([1.0, 2.0],), expected_return=[999.0]),
    ]
    misses_before = caches.stats.trace_misses
    assert caches.is_correct(program, wrong_cases) is False
    assert caches.stats.trace_misses > misses_before

    # Case-set keys distinguish both membership and order.
    assert case_set_key(deriv_cases) != case_set_key(wrong_cases)
    assert case_set_key(deriv_cases) != case_set_key(list(reversed(deriv_cases)))
    # And the original verdict is still served from cache.
    hits_before = caches.stats.trace_hits
    assert caches.is_correct(program, deriv_cases) is True
    assert caches.stats.trace_hits > hits_before


def test_disabled_caches_always_recompute(deriv_cases, paper_sources):
    caches = RepairCaches(enabled=False)
    program = parse_source(paper_sources["C1"])
    assert caches.is_correct(program, deriv_cases) is True
    assert caches.is_correct(program, deriv_cases) is True
    assert caches.stats.trace_hits == 0
    assert caches.stats.trace_misses == 2
    assert caches.entry_counts() == {
        "traces": 0,
        "correct": 0,
        "matches": 0,
        "fingerprints": 0,
        "repairs": 0,
        "candidate_sites": 0,
        "ted_annotations": 0,
        "ted_distances": 0,
        "compiled_exprs": 0,
        "solves": 0,
    }


# -- structural-match cache -----------------------------------------------------------


def test_gate_and_search_share_one_match_per_pair(deriv_cases, paper_sources):
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    program = clara.parse(paper_sources["I1"])

    outcome = clara.repair_program(program)
    assert outcome.succeeded
    stats = clara.caches.stats
    # One structural match computed per (attempt, representative) pair; the
    # pipeline gate and find_best_repair both consult it, so the search's
    # queries are all hits.
    assert stats.match_misses == clara.cluster_count
    assert stats.match_hits >= clara.cluster_count

    # Repairing an identical parse again recomputes nothing.
    misses_before = stats.match_misses
    duplicate = clara.parse(paper_sources["I1"])
    again = clara.repair_program(duplicate)
    assert again.status == outcome.status
    assert stats.match_misses == misses_before
    assert stats.repair_hits >= 1


# -- batch engine ---------------------------------------------------------------------


def _sequential_outcomes(cases, correct, attempts):
    clara = Clara(cases)
    clara.add_correct_sources(correct)
    return [clara.repair_source(source) for source in attempts]


def test_batch_results_identical_to_sequential(deriv_cases, paper_sources):
    correct = [paper_sources["C1"], paper_sources["C2"]]
    attempts = [
        paper_sources["I1"],
        paper_sources["I2"],
        paper_sources["I1"],  # duplicate resubmission
        paper_sources["C1"],  # already correct
        "def computeDeriv(poly:",  # parse error
    ]
    sequential = _sequential_outcomes(deriv_cases, correct, attempts)

    batched = Clara(deriv_cases)
    batched.add_correct_sources(correct)
    report = BatchRepairEngine(batched, workers=4).run(attempts)

    assert [o.status for o in sequential] == [r.status for r in report.records]
    for seq, record in zip(sequential, report.records):
        if seq.repair is None:
            assert record.cost is None
        else:
            assert record.cost == seq.repair.cost
            assert record.num_modified == seq.repair.num_modified_expressions
        seq_feedback = (
            [item.message for item in seq.feedback.items] if seq.feedback else []
        )
        assert record.feedback == seq_feedback
    # The duplicate of I1 must have been served from the repair memo.
    assert report.cache_stats.repair_hits >= 1
    assert report.cache_stats.trace_hits >= 1


def test_batch_single_flight_dedupes_concurrent_duplicates(deriv_cases, paper_sources):
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    report = BatchRepairEngine(clara, workers=4).run([paper_sources["I1"]] * 8)

    statuses = {record.status for record in report.records}
    assert statuses == {"repaired"}
    # Exactly one ILP solve; the other seven attempts reuse it (possibly
    # after waiting on the in-flight computation).
    assert report.cache_stats.repair_misses == 1
    assert report.cache_stats.repair_hits == 7


def test_batch_preserves_submission_order_and_ids(deriv_cases, paper_sources):
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    attempts = [
        BatchAttempt("zz-last", paper_sources["I1"]),
        BatchAttempt("aa-first", paper_sources["I2"]),
    ]
    report = BatchRepairEngine(clara, workers=2).run(attempts)
    assert [record.attempt_id for record in report.records] == ["zz-last", "aa-first"]


def test_batch_report_serialises_to_jsonl(tmp_path, deriv_cases, paper_sources):
    import json

    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"]])
    report = BatchRepairEngine(clara, workers=1).run([paper_sources["I1"]])
    path = report.write_jsonl(tmp_path / "report.jsonl")

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["attempt_id"] == "attempt-0"
    assert lines[0]["status"] in ("repaired", "no-repair", "no-structural-match")
    summary = lines[1]["summary"]
    assert summary["attempts"] == 1
    assert set(summary["cache"]) >= {"trace_hit_rate", "match_hit_rate", "repair_hit_rate"}


def test_latency_percentile_ends_are_fastest_and_slowest():
    records = [BatchRecord(f"a{i}", "repaired", float(i)) for i in range(1, 11)]
    report = BatchReport(records, [], wall_time=55.0, workers=1, cache_stats=CacheStats())
    assert report.latency_percentile(0) == 1.0
    assert report.latency_percentile(100) == 10.0
    assert report.p50_latency == 5.5
    assert abs(report.p95_latency - 9.55) < 1e-9
    assert abs(report.latency_percentile(1) - 1.09) < 1e-9
    assert abs(report.latency_percentile(99) - 9.91) < 1e-9


def test_repair_source_is_batch_size_one(deriv_cases, paper_sources):
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    outcome = clara.repair_source(paper_sources["I1"])
    assert outcome.succeeded
    # Parse time is included in the per-attempt elapsed measurement.
    assert outcome.elapsed > 0


def test_memo_respects_source_positions(deriv_cases, paper_sources):
    """Structurally identical code at shifted line numbers must not share
    memoized feedback (the feedback cites line numbers)."""
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    original = clara.repair_source(paper_sources["I1"])
    shifted = clara.repair_source("\n\n\n" + paper_sources["I1"])
    assert original.succeeded and shifted.succeeded
    original_lines = [item.line for item in original.feedback.items]
    shifted_lines = [item.line for item in shifted.feedback.items]
    assert shifted_lines == [line + 3 for line in original_lines]
    # The structural trace cache still dedupes the executions.
    assert clara.caches.stats.trace_hits >= 1


def test_shared_caches_do_not_leak_across_pipelines(deriv_cases, paper_sources):
    from repro.engine import RepairCaches

    caches = RepairCaches()
    first = Clara(deriv_cases, caches=caches)
    first.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    second = Clara(deriv_cases, caches=caches)
    second.add_correct_sources([paper_sources["C2"]])

    outcome_first = first.repair_source(paper_sources["I1"])
    outcome_second = second.repair_source(paper_sources["I1"])
    assert outcome_first.succeeded and outcome_second.succeeded
    # Identical attempt, but different pipelines (different cluster pools):
    # each must compute its own outcome rather than reuse the other's.
    assert caches.stats.repair_misses == 2
    assert caches.stats.repair_hits == 0


def test_timeout_outcomes_are_not_memoized(deriv_cases, paper_sources):
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    timed_out = clara.repair_source(paper_sources["I1"], budget=0.0)
    assert timed_out.status == "timeout"
    assert clara.caches.entry_counts()["repairs"] == 0
    # The same attempt without the zero budget still repairs fine.
    retried = clara.repair_source(paper_sources["I1"])
    assert retried.succeeded


def test_batch_budget_produces_timeout_status(deriv_cases, paper_sources):
    clara = Clara(deriv_cases)
    clara.add_correct_sources([paper_sources["C1"], paper_sources["C2"]])
    report = BatchRepairEngine(clara, workers=1).run([paper_sources["I1"]], budget=0.0)
    assert report.records[0].status == "timeout"
