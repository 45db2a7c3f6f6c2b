"""Tests for the evaluation harness (experiment runner, metrics, tables, figures)."""

from __future__ import annotations

import random

import pytest

from repro.evalharness import (
    ascii_bar_chart,
    autograder_comparison_counts,
    cumulative_fraction_below,
    format_failure_breakdown,
    format_table1,
    format_table2,
    modified_expression_distribution,
    provenance_statistics,
    quality_proxy,
    relative_size_histogram,
    render_fig6,
    render_fig7a,
    render_fig7b,
    run_problem,
    run_user_study,
    simulate_grade,
)
from repro.evalharness.experiment import AttemptResult, ProblemResult


@pytest.fixture(scope="module")
def small_result():
    return run_problem(
        "derivatives", n_correct=8, n_incorrect=5, seed=9, run_autograder=True
    )


def test_run_problem_aggregates(small_result):
    assert small_result.problem == "derivatives"
    assert small_result.n_correct == 8
    assert small_result.n_incorrect == 5
    assert small_result.n_clusters >= 1
    assert 0 <= small_result.n_repaired <= small_result.n_incorrect
    assert small_result.repair_rate <= 1.0
    assert small_result.loc_median > 0
    assert small_result.ast_size_median > 0
    # at least some attempts get repaired at this scale
    assert small_result.n_repaired >= 2
    assert small_result.avg_time >= small_result.median_time * 0 and small_result.avg_time >= 0


def test_attempt_records_have_metrics(small_result):
    repaired = [a for a in small_result.attempts if a.repaired]
    assert repaired
    for attempt in repaired:
        assert attempt.cost is not None
        assert attempt.relative_size is not None
        assert attempt.num_modified is not None and attempt.num_modified >= 0
        assert attempt.repaired_passes is True


def test_run_problem_generates_each_pairs_fixed_sites_once(monkeypatch):
    """The best-first pre-pass's fixed sites reach the search: no (attempt,
    cluster) pair's fixed-site candidates are computed a second time."""
    from collections import Counter

    import repro.core.localrepair as localrepair
    import repro.core.repair as repair_module
    from repro.core.pipeline import Clara

    attempt = [0]
    computed = [0]
    generated = Counter()
    original_repair_source = Clara.repair_source
    original_fixed = localrepair.generate_fixed_sites
    original_target = localrepair._candidates_for_target

    def repair_source(self, *args, **kwargs):
        attempt[0] += 1
        return original_repair_source(self, *args, **kwargs)

    def target_spy(*args, **kwargs):
        computed[0] += 1
        return original_target(*args, **kwargs)

    def fixed_spy(implementation, cluster, *args, **kwargs):
        before = computed[0]
        result = original_fixed(implementation, cluster, *args, **kwargs)
        if computed[0] > before:
            generated[attempt[0], cluster.cluster_id] += 1
        return result

    monkeypatch.setattr(Clara, "repair_source", repair_source)
    monkeypatch.setattr(localrepair, "_candidates_for_target", target_spy)
    monkeypatch.setattr(localrepair, "generate_fixed_sites", fixed_spy)
    monkeypatch.setattr(repair_module, "generate_fixed_sites", fixed_spy)

    result = run_problem("derivatives", n_correct=8, n_incorrect=5, seed=9)
    assert result.n_repaired >= 2
    assert generated
    assert set(generated.values()) == {1}, generated


def test_metrics_functions(small_result):
    results = [small_result]
    histogram = relative_size_histogram(results)
    assert sum(histogram.values()) == len(small_result.relative_sizes())
    assert 0.0 <= cumulative_fraction_below(results, 0.3) <= 1.0
    distribution = modified_expression_distribution(results, tool="clara")
    assert sum(distribution.values()) <= small_result.n_repaired
    comparison = autograder_comparison_counts(results)
    assert set(comparison) == {"equal", "autograder_fewer", "clara_fewer"}
    provenance = provenance_statistics(results)
    assert provenance["total"] == small_result.n_repaired
    quality = quality_proxy(results)
    assert 0.0 <= quality["good_quality"] <= 1.0


def test_table_and_figure_rendering(small_result):
    results = [small_result]
    table = format_table1(results)
    assert "derivatives" in table and "Total" in table and "%" in table
    breakdown = format_failure_breakdown(results)
    assert isinstance(breakdown, str)
    assert "Figure 6" in render_fig6(results)
    assert "Figure 7a" in render_fig7a(results)
    assert "Figure 7b" in render_fig7b(results)
    chart = ascii_bar_chart({"a": 2, "b": 4}, width=10, title="demo")
    assert "demo" in chart and "####" in chart


def test_tables_without_times_omit_wallclock_columns(small_result):
    table1 = format_table1([small_result], with_times=False)
    assert "avg(med) s" not in table1 and "AG avg s" not in table1
    assert "derivatives" in table1 and "Total" in table1
    rows = run_user_study(n_correct=6, n_incorrect=4, seed=5, problems=["special_number"])
    table2 = format_table2(rows, with_times=False)
    assert "avg s" not in table2 and "med s" not in table2
    assert "special_number" in table2


def test_failure_breakdown_counts():
    result = ProblemResult(
        problem="x", n_correct=1, n_clusters=1, n_incorrect=3, clustering_time=0.0
    )
    result.attempts = [
        AttemptResult(problem="x", fault_label="", status="repaired"),
        AttemptResult(problem="x", fault_label="", status="unsupported"),
        AttemptResult(problem="x", fault_label="", status="unsupported"),
    ]
    assert result.failure_breakdown() == {"unsupported": 2}
    assert result.n_repaired == 1


def test_simulated_grades_monotonic_in_quality():
    rng = random.Random(0)
    small = [simulate_grade(0.05, False, rng) for _ in range(200)]
    rng = random.Random(0)
    large = [simulate_grade(0.9, False, rng) for _ in range(200)]
    rng = random.Random(0)
    generic = [simulate_grade(None, True, rng) for _ in range(200)]
    assert sum(small) / len(small) > sum(large) / len(large)
    assert sum(small) / len(small) > sum(generic) / len(generic)
    assert all(1 <= g <= 5 for g in small + large + generic)


def test_user_study_single_problem_row():
    rows = run_user_study(n_correct=6, n_incorrect=4, seed=5, problems=["special_number"])
    assert len(rows) == 1
    row = rows[0]
    assert row.problem == "special_number"
    assert row.n_incorrect == 4
    assert 0 <= row.n_feedback <= row.n_incorrect
    assert row.n_repair_feedback <= row.n_feedback
    assert sum(row.grade_histogram.values()) == row.n_feedback
    table = format_table2(rows)
    assert "special_number" in table and "average usefulness grade" in table
