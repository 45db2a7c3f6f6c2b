"""Tests for program matching (Fig. 4) and clustering (Def. 4.7)."""

from __future__ import annotations

import random

from repro.core.clustering import cluster_programs
from repro.core.inputs import InputCase
from repro.core.matching import find_matching, programs_match, structural_match
from repro.datasets.variants import rename_python_variables
from repro.frontend import parse_python_source


def test_structural_match_same_shape(paper_sources):
    c1 = parse_python_source(paper_sources["C1"])
    c2 = parse_python_source(paper_sources["C2"])
    mapping = structural_match(c1, c2)
    assert mapping is not None
    assert len(mapping) == len(c1.locations) == len(c2.locations)
    assert mapping[c1.init_loc] == c2.init_loc


def test_structural_match_rejects_different_loop_structure():
    no_loop = parse_python_source("def f(x):\n    return x\n")
    one_loop = parse_python_source(
        "def f(x):\n    s = 0\n    for i in range(x):\n        s += i\n    return s\n"
    )
    two_loops = parse_python_source(
        "def f(x):\n    s = 0\n    for i in range(x):\n        s += i\n"
        "    for j in range(x):\n        s += j\n    return s\n"
    )
    assert structural_match(no_loop, one_loop) is None
    assert structural_match(one_loop, two_loops) is None
    assert structural_match(one_loop, one_loop) is not None


def test_paper_c1_c2_match(paper_sources, deriv_cases):
    c1 = parse_python_source(paper_sources["C1"])
    c2 = parse_python_source(paper_sources["C2"])
    witness = find_matching(c2, c1, deriv_cases)
    assert witness is not None
    # The bijection from the paper: deriv ↦ result, i ↦ e, poly ↦ poly.
    assert witness.variable_map["deriv"] == "result"
    assert witness.variable_map["i"] == "e"
    assert witness.variable_map["poly"] == "poly"
    assert witness.variable_map["$ret"] == "$ret"


def test_incorrect_attempt_does_not_match_correct(paper_sources, deriv_cases):
    c1 = parse_python_source(paper_sources["C1"])
    i1 = parse_python_source(paper_sources["I1"])
    assert not programs_match(i1, c1, deriv_cases)


def test_matching_is_an_equivalence_on_renamed_programs(deriv_cases, paper_sources):
    rng = random.Random(4)
    original = paper_sources["C1"]
    renamed = rename_python_variables(original, rng)
    p = parse_python_source(original)
    q = parse_python_source(renamed)
    assert programs_match(p, p, deriv_cases)  # reflexive
    assert programs_match(q, p, deriv_cases)  # renamed programs match
    assert programs_match(p, q, deriv_cases)  # symmetric


def test_matching_distinguishes_semantically_different_programs():
    cases = [InputCase(args=(n,), expected_return=None) for n in (0, 1, 3, 5)]
    double = parse_python_source(
        "def f(n):\n    s = 0\n    for i in range(n):\n        s += 2\n    return s\n"
    )
    square = parse_python_source(
        "def f(n):\n    s = 0\n    for i in range(n):\n        s += i\n    return s\n"
    )
    assert not programs_match(double, square, cases)


# -- clustering --------------------------------------------------------------------


def test_clustering_groups_equivalent_solutions(paper_sources, deriv_cases):
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    result = cluster_programs(programs, deriv_cases)
    assert result.cluster_count == 1
    assert result.clusters[0].size == 2


def test_clustering_separates_different_strategies(deriv_cases, paper_sources):
    guard_first = """
def computeDeriv(poly):
    if len(poly) <= 1:
        return [0.0]
    out = []
    for i in range(1, len(poly)):
        out.append(1.0*poly[i]*i)
    return out
"""
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
        parse_python_source(guard_first),
    ]
    result = cluster_programs(programs, deriv_cases)
    # The guard-first solution takes a different path on [] and [1.0] inputs
    # (it returns before the loop), so it cannot be dynamically equivalent.
    assert result.cluster_count == 2
    assert sorted(cluster.size for cluster in result.clusters) == [1, 2]


def test_cluster_expression_pools_collect_variants(paper_sources, deriv_cases):
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    result = cluster_programs(programs, deriv_cases)
    cluster = result.clusters[0]
    rep = cluster.representative
    # Find the loop-body location and the accumulator variable of the
    # representative; the pool must contain at least two distinct expressions
    # (append-style from C1 and list-concatenation style from C2), all over
    # the representative's variables.
    pools = [
        (key, pool)
        for key, pool in cluster.expressions.items()
        if key[1] == "result" and len(pool) >= 2
    ]
    assert pools, "expected a pool with both expression styles"
    for _key, pool in pools:
        for entry in pools[0][1]:
            assert entry.expr.variables() <= set(rep.variables)


def test_clustering_reports_failures_gracefully(deriv_cases):
    # A program whose execution always diverges still ends up in a cluster of
    # its own (aborted traces are compared like any other), never crashing.
    diverging = parse_python_source(
        "def computeDeriv(poly):\n    while True:\n        poly = poly\n    return poly\n"
    )
    result = cluster_programs([diverging], deriv_cases)
    assert result.cluster_count == 1
    assert not result.failures


def test_repeated_add_correct_sources_extends_the_same_clusters():
    """Adding a pool in two calls places the second half into the clusters
    of the first (first match wins across calls), so the clustering equals
    one call over the concatenation instead of splitting classes."""
    from repro import Clara
    from repro.core.clustering import ClusteringResult
    from repro.datasets import generate_corpus, get_problem

    spec = get_problem("derivatives")
    sources = generate_corpus(spec, 20, 0, seed=7).correct_sources

    def clustering(*batches):
        clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
        for batch in batches:
            clara.add_correct_sources(batch)
        return ClusteringResult(clara.clusters).signature()

    whole = clustering(sources)
    assert len(whole) < len(sources)
    assert clustering(sources[:10], sources[10:]) == whole
