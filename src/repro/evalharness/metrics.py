"""Metrics and aggregations over experiment results."""

from __future__ import annotations

import math
from typing import Iterable

from .experiment import ProblemResult

__all__ = [
    "relative_size_histogram",
    "RELATIVE_SIZE_BUCKETS",
    "modified_expression_distribution",
    "autograder_comparison_counts",
    "provenance_statistics",
    "quality_proxy",
]

#: Bucket upper bounds for the Fig. 6 histogram (the last bucket is ∞).
RELATIVE_SIZE_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def relative_size_histogram(
    results: Iterable[ProblemResult],
) -> dict[str, int]:
    """Histogram of relative repair sizes (Fig. 6).

    Buckets are labelled by their upper bound; repairs larger than 1.0 land in
    ``">1.0"`` and repairs of empty programs land in ``"inf"``.
    """
    labels = [f"<{b:.1f}" for b in RELATIVE_SIZE_BUCKETS] + [">1.0", "inf"]
    histogram = {label: 0 for label in labels}
    for result in results:
        for size in result.relative_sizes():
            if math.isinf(size):
                histogram["inf"] += 1
                continue
            for bound in RELATIVE_SIZE_BUCKETS:
                if size < bound:
                    histogram[f"<{bound:.1f}"] += 1
                    break
            else:
                histogram[">1.0"] += 1
    return histogram


def cumulative_fraction_below(results: Iterable[ProblemResult], bound: float) -> float:
    """Fraction of repairs with relative size below ``bound`` (paper: 68% < 0.3)."""
    sizes = [s for result in results for s in result.relative_sizes()]
    if not sizes:
        return 0.0
    return sum(1 for s in sizes if not math.isinf(s) and s < bound) / len(sizes)


def modified_expression_distribution(
    results: Iterable[ProblemResult], *, tool: str = "clara", max_bucket: int = 6
) -> dict[str, int]:
    """Distribution of the number of modified expressions per repair (Fig. 7b)."""
    histogram = {str(i): 0 for i in range(1, max_bucket)}
    histogram[f"{max_bucket}+"] = 0
    for result in results:
        for attempt in result.attempts:
            count = (
                attempt.num_modified
                if tool == "clara"
                else attempt.autograder_modified
            )
            if count is None:
                continue
            if tool == "clara" and not attempt.repaired:
                continue
            key = str(count) if 0 < count < max_bucket else (f"{max_bucket}+" if count >= max_bucket else None)
            if key is not None:
                histogram[key] += 1
    return histogram


def autograder_comparison_counts(results: Iterable[ProblemResult]) -> dict[str, int]:
    """Fig. 7(a): on attempts both tools repair, who modifies fewer expressions."""
    counts = {"equal": 0, "autograder_fewer": 0, "clara_fewer": 0}
    for result in results:
        for attempt in result.attempts:
            if not attempt.repaired or not attempt.autograder_repaired:
                continue
            if attempt.num_modified is None or attempt.autograder_modified is None:
                continue
            if attempt.num_modified == attempt.autograder_modified:
                counts["equal"] += 1
            elif attempt.autograder_modified < attempt.num_modified:
                counts["autograder_fewer"] += 1
            else:
                counts["clara_fewer"] += 1
    return counts


def provenance_statistics(results: Iterable[ProblemResult]) -> dict[str, float]:
    """Fraction of repairs drawing expressions from ≥2 / ≥3 cluster members.

    Reproduces the "Clusters" paragraph of §6.2 (paper: ~50% use at least two
    different correct solutions, ~3% at least three).
    """
    repaired = [
        attempt
        for result in results
        for attempt in result.attempts
        if attempt.repaired
    ]
    if not repaired:
        return {"total": 0, "at_least_two": 0.0, "at_least_three": 0.0}
    at_least_two = sum(1 for a in repaired if a.provenance_members >= 2)
    at_least_three = sum(1 for a in repaired if a.provenance_members >= 3)
    return {
        "total": len(repaired),
        "at_least_two": at_least_two / len(repaired),
        "at_least_three": at_least_three / len(repaired),
    }


def quality_proxy(results: Iterable[ProblemResult]) -> dict[str, float]:
    """Automated stand-in for the manual repair-quality inspection (§6.2 (3)).

    The paper's manual inspection found 81% of repairs to be small, natural
    repairs.  Without humans we classify a repair as *good quality* when it
    (a) makes the repaired program pass the full test suite and (b) has a
    relative size below 0.35 (small, targeted change), and as *trivial-ish*
    when it rewrites most of the program (relative size >= 0.75).
    """
    repaired = [
        attempt
        for result in results
        for attempt in result.attempts
        if attempt.repaired and attempt.relative_size is not None
    ]
    if not repaired:
        return {"total": 0, "good_quality": 0.0, "large_rewrite": 0.0, "passes": 0.0}
    good = sum(
        1
        for a in repaired
        if a.relative_size < 0.35 and (a.repaired_passes is not False)
    )
    large = sum(1 for a in repaired if math.isinf(a.relative_size) or a.relative_size >= 0.75)
    passes = sum(1 for a in repaired if a.repaired_passes)
    return {
        "total": len(repaired),
        "good_quality": good / len(repaired),
        "large_rewrite": large / len(repaired),
        "passes": passes / len(repaired),
    }
