"""Tests for local repair generation and the repair algorithm (paper §5)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers.differential import assert_repairs_field_identical, candidate_fields, repair_fields

from repro.core.clustering import cluster_programs
from repro.core.inputs import is_correct
from repro.core.localrepair import (
    enumerate_partial_relations,
    expressions_match,
    fixed_site_floor,
    generate_fixed_sites,
    generate_local_repairs,
)
from repro.core.matching import structural_match
from repro.core.repair import find_best_repair, repair_against_cluster
from repro.frontend import parse_python_source
from repro.model.expr import Const, Op, Var


@pytest.fixture()
def deriv_cluster(paper_sources, deriv_cases):
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    return cluster_programs(programs, deriv_cases).clusters[0]


# -- expression matching and partial relations ----------------------------------------


def test_expressions_match_on_representative_traces(deriv_cluster):
    rep = deriv_cluster.representative
    traces = deriv_cluster.representative_traces
    loop_body = rep.location_ids()[2]
    append_style = rep.update_for(loop_body, "result")
    concat_style = Op(
        "Add",
        Var("result"),
        Op("ListInit", Op("Mult", Op("float", Op("ListHead", Var("$iter1"))),
                          Op("GetElement", Var("poly"), Op("ListHead", Var("$iter1"))))),
    )
    assert expressions_match(concat_style, append_style, traces, loop_body)
    wrong = Op("Add", Var("result"), Const([1.0]))
    assert not expressions_match(wrong, append_style, traces, loop_body)


def test_enumerate_partial_relations_injective_and_forced():
    relations = list(
        enumerate_partial_relations(["a", "b"], ["x", "y", "z"], forced=("a", "x"))
    )
    assert all(rel["a"] == "x" for rel in relations)
    assert all(rel["b"] != "x" for rel in relations)
    assert {rel["b"] for rel in relations} == {"y", "z"}


def test_enumerate_partial_relations_fixed_specials_map_identically():
    relations = list(
        enumerate_partial_relations(["$ret", "v"], ["x", "y"], forced=("v", "x"))
    )
    assert relations and all(rel["$ret"] == "$ret" for rel in relations)


# -- local repairs --------------------------------------------------------------------


def test_local_repairs_for_paper_i1(paper_sources, deriv_cluster):
    implementation = parse_python_source(paper_sources["I1"])
    location_map = structural_match(implementation, deriv_cluster.representative)
    candidates = generate_local_repairs(implementation, deriv_cluster, location_map)

    # Site of the wrong return expression (after the loop, variable $ret).
    after_loop = implementation.location_ids()[3]
    ret_site = next(s for s in candidates if s.loc_id == after_loop and s.var == "$ret")
    ret_candidates = candidates[ret_site]
    assert ret_candidates, "the return expression must have repair candidates"
    # At least one replacement candidate exists with a small cost (change 0.0
    # to [0.0]); no zero-cost keep candidate may exist because the original
    # return expression is wrong.
    assert all(c.cost > 0 or c.new_expr is not None for c in ret_candidates)
    assert min(c.cost for c in ret_candidates) <= 2

    # The accumulator assignment inside the loop body is already correct, so a
    # zero-cost keep candidate must exist for it.
    loop_body = implementation.location_ids()[2]
    new_site = next(s for s in candidates if s.loc_id == loop_body and s.var == "new")
    assert any(c.keeps_original and c.cost == 0 for c in candidates[new_site])


# -- whole-program repair ----------------------------------------------------------------


def test_repair_paper_i1_minimal(paper_sources, deriv_cases, deriv_cluster):
    implementation = parse_python_source(paper_sources["I1"])
    repair = repair_against_cluster(implementation, deriv_cluster)
    assert repair is not None
    # Fig. 2(g): a single small change (0.0 -> [0.0]); relative size ~0.03.
    assert repair.num_modified_expressions == 1
    assert repair.cost <= 2
    assert repair.relative_size() < 0.1
    assert is_correct(repair.repaired_program, deriv_cases)
    # The witness maps the student's variables onto the representative's.
    assert repair.variable_map["new"] == "result"


def test_repair_paper_i2_three_changes(paper_sources, deriv_cases, deriv_cluster):
    implementation = parse_python_source(paper_sources["I2"])
    repair = repair_against_cluster(implementation, deriv_cluster)
    assert repair is not None
    # Fig. 2(h): iterator bounds, the assignment style, and the return value.
    assert repair.num_modified_expressions == 3
    assert is_correct(repair.repaired_program, deriv_cases)


def test_repair_soundness_theorem_5_3(paper_sources, deriv_cases, deriv_cluster):
    # Every produced repair must make the program pass the inputs I
    # (Theorem 5.3 instantiated on the test inputs).
    for name in ("I1", "I2"):
        implementation = parse_python_source(paper_sources[name])
        repair = repair_against_cluster(implementation, deriv_cluster)
        assert repair is not None
        assert is_correct(repair.repaired_program, deriv_cases)


def test_repair_requires_same_control_flow(deriv_cases, deriv_cluster):
    loop_free = parse_python_source("def computeDeriv(poly):\n    return [0.0]\n")
    assert repair_against_cluster(loop_free, deriv_cluster) is None


def test_repair_adds_fresh_variable_when_needed(deriv_cases):
    # The correct solution tracks the derivative in an accumulator; the
    # incorrect attempt forgot the accumulator entirely (cf. Fig. 8's "big
    # conceptual error": a fresh variable plus new statements are required).
    correct = """
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
"""
    missing_accumulator = """
def computeDeriv(poly):
    for e in range(1, len(poly)):
        pass
    if poly == []:
        return [0.0]
    else:
        return poly
"""
    cluster = cluster_programs([parse_python_source(correct)], deriv_cases).clusters[0]
    implementation = parse_python_source(missing_accumulator)
    repair = repair_against_cluster(implementation, cluster)
    assert repair is not None
    assert repair.added_vars, "a fresh accumulator variable must be introduced"
    assert is_correct(repair.repaired_program, deriv_cases)
    assert any(action.kind == "add" for action in repair.actions)


def test_repair_deletes_spurious_variable(deriv_cases, paper_sources):
    cluster = cluster_programs(
        [parse_python_source(paper_sources["C1"])], deriv_cases
    ).clusters[0]
    with_extra = """
def computeDeriv(poly):
    result = []
    junk = 0
    for e in range(1, len(poly)):
        result.append(poly[e]*e)
        junk = junk + 1
    if result == []:
        return [0.0]
    else:
        return result
"""
    implementation = parse_python_source(with_extra)
    repair = repair_against_cluster(implementation, cluster)
    assert repair is not None
    assert is_correct(repair.repaired_program, deriv_cases)
    # 'junk' has no counterpart in the single-member cluster: it is deleted.
    assert "junk" in repair.deleted_vars


def test_find_best_repair_prefers_cheapest_cluster(paper_sources, deriv_cases):
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    clusters = cluster_programs(programs, deriv_cases).clusters
    implementation = parse_python_source(paper_sources["I1"])
    best = find_best_repair(implementation, clusters)
    assert best is not None
    assert best.cost <= 2


def test_find_best_repair_visits_clusters_in_deterministic_order(
    paper_sources, deriv_cases
):
    """The pre-pass takes the clusters in canonical order, bigger clusters
    first with size ties broken by ascending cluster_id, independent of the
    order the cluster list happens to arrive in; a timeout therefore cuts
    it there.  The order is read off the structural matches the search
    asks its caches for."""
    from repro.engine import RepairCaches

    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    # Two singleton clusters of the same strategy (equal sizes, ids 0 and
    # 1) and one two-member cluster (id 2).
    clusters = [
        cluster_programs([program], deriv_cases).clusters[0] for program in programs
    ]
    clusters[1].cluster_id = 1
    pair = cluster_programs(
        [parse_python_source(paper_sources[name]) for name in ("C1", "C2")],
        deriv_cases,
    ).clusters[0]
    pair.cluster_id = 2
    clusters.append(pair)
    cluster_of = {id(cluster.representative): cluster.cluster_id for cluster in clusters}
    implementation = parse_python_source(paper_sources["I1"])
    for ordering in (clusters, list(reversed(clusters))):
        caches = RepairCaches()
        visited = []
        match = caches.structural_match

        def spy(program, representative):
            visited.append(cluster_of[id(representative)])
            return match(program, representative)

        caches.structural_match = spy
        best = find_best_repair(implementation, ordering, caches=caches, cost_bound=False)
        assert best is not None
        assert visited == [2, 0, 1]  # size first, then lowest cluster_id


def test_enumeration_solver_agrees_with_ilp(paper_sources, deriv_cases, deriv_cluster):
    for name in ("I1", "I2"):
        implementation = parse_python_source(paper_sources[name])
        ilp = repair_against_cluster(implementation, deriv_cluster, solver="ilp")
        enum = repair_against_cluster(implementation, deriv_cluster, solver="enumerate")
        assert ilp is not None and enum is not None
        assert abs(ilp.cost - enum.cost) < 1e-9


def test_unknown_solver_rejected(paper_sources, deriv_cluster):
    implementation = parse_python_source(paper_sources["I1"])
    with pytest.raises(ValueError):
        repair_against_cluster(implementation, deriv_cluster, solver="magic")


# -- the fast path: cost-bounded search and candidate pruning ------------------------


def _repair_fields(repair):
    """Everything observable about a repair except wall-clock solve time."""
    return repair.comparable_fields() if repair is not None else None


def test_cost_bounded_search_is_field_identical(paper_sources, deriv_cases):
    from repro.engine import RepairCaches

    # Two singleton clusters force the search to visit a second cluster with
    # a bound from the first.
    clusters = [
        cluster_programs([parse_python_source(paper_sources[name])], deriv_cases).clusters[0]
        for name in ("C1", "C2")
    ]
    clusters[1].cluster_id = 1
    for name in ("I1", "I2"):
        implementation = parse_python_source(paper_sources[name])
        unpruned = find_best_repair(
            implementation, clusters, caches=RepairCaches(enabled=False), cost_bound=False
        )
        pruned = find_best_repair(
            implementation, clusters, caches=RepairCaches(), cost_bound=True
        )
        assert _repair_fields(pruned) == _repair_fields(unpruned)


def test_cost_bounded_search_skips_ted_dps(paper_sources, deriv_cases):
    from repro.engine import RepairCaches

    clusters = [
        cluster_programs([parse_python_source(paper_sources[name])], deriv_cases).clusters[0]
        for name in ("C1", "C2")
    ]
    clusters[1].cluster_id = 1
    implementation = parse_python_source(paper_sources["I2"])

    baseline = RepairCaches(enabled=False)
    find_best_repair(implementation, clusters, caches=baseline, cost_bound=False)
    fast = RepairCaches()
    find_best_repair(implementation, clusters, caches=fast, cost_bound=True)

    assert fast.ted.dp_runs < baseline.ted.dp_runs
    assert fast.ted.memo_hits + fast.ted.lb_prunes > 0


_CANDIDATE_ORDER_SCRIPT = r"""
from repro.core.clustering import cluster_programs
from repro.core.inputs import InputCase
from repro.core.localrepair import generate_local_repairs
from repro.core.matching import structural_match
from repro.frontend import parse_python_source

correct = "def f(a, b):\n    s = a + b\n    return s\n"
attempt = "def f(x, y):\n    t = y + x\n    return t + 0\n"
cases = [InputCase(args=(1, 2)), InputCase(args=(5, -3))]
cluster = cluster_programs([parse_python_source(correct)], cases).clusters[0]
implementation = parse_python_source(attempt)
location_map = structural_match(implementation, cluster.representative)
candidates = generate_local_repairs(implementation, cluster, location_map)
for site, site_candidates in candidates.items():
    print(site, [(c.rep_var, c.omega, str(c.new_expr), c.cost) for c in site_candidates])
"""


def test_candidate_lists_are_hashseed_independent():
    """``t = y + x`` mentions two free variables, and ``+`` is commutative,
    so two keep candidates (ω pairing x, y with a, b either way) match the
    representative's ``s = a + b``.  Their order follows the enumeration
    order of the expression's variables, which must be the implementation's
    variable order, not the per-process ``set`` order (the two seeds below
    iterate ``{x, y, t}`` differently)."""
    outputs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", _CANDIDATE_ORDER_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    keeps = [
        line for line in outputs[0].splitlines() if "var='t'" in line
    ]
    assert keeps and keeps[0].count("'None', 0") == 2, outputs[0]
    assert outputs[0] == outputs[1], "candidate lists vary with PYTHONHASHSEED"


def test_generate_local_repairs_prunes_only_at_or_above_bound(
    paper_sources, deriv_cluster
):
    implementation = parse_python_source(paper_sources["I2"])
    location_map = structural_match(implementation, deriv_cluster.representative)
    unbounded = generate_local_repairs(implementation, deriv_cluster, location_map)
    costs = sorted(
        c.cost for candidates in unbounded.values() for c in candidates if c.cost > 0
    )
    assert costs, "the corpus must produce costly candidates"
    bound = float(costs[len(costs) // 2])

    bounded = generate_local_repairs(
        implementation, deriv_cluster, location_map, cost_bound=bound
    )
    assert set(bounded) == set(unbounded)
    for site, candidates in unbounded.items():
        surviving = [c for c in candidates if c.cost < bound]
        assert bounded[site] == surviving, (
            "pruning must drop exactly the candidates whose cost reaches the "
            "bound, with identical costs for the survivors"
        )


# -- fixed-site refutation ------------------------------------------------------------


def _reference_repair(implementation, cluster, location_map, unbounded, bound):
    """Def. 5.5 solved over the full candidate lists, pruned only to ``bound``.

    ``unbounded`` is ``generate_local_repairs`` without a bound; pruning keeps
    the replacements cheaper than the bound and every keep candidate, as
    bounded generation does.
    """
    from repro.core.repair import _build_ilp, _decode_solution
    from repro.ilp import InfeasibleError, solve_fast

    candidates = {
        site: [
            c for c in site_candidates if bound is None or c.new_expr is None or c.cost < bound
        ]
        for site, site_candidates in unbounded.items()
    }
    problem, indexed = _build_ilp(implementation, cluster, candidates)
    try:
        solution = solve_fast(problem, upper_bound=bound)
    except InfeasibleError:
        return None
    if solution is None:
        return None
    return _decode_solution(
        solution.values, implementation, cluster, location_map, indexed, solution.objective
    )


def test_fixed_site_refutation_is_exact_on_the_derivatives_corpus(monkeypatch):
    """For every (attempt, cluster) pair and every bound (none, each repair
    cost seen, and one above the pair's own cost), the repair equals the ILP
    over the full candidate lists.  Refuted clusters (no ordinary site generated) occur for both
    reasons: a fixed site left without candidates, and fixed-site minimum
    costs summing to the bound."""
    import repro.core.repair as repair_module
    from repro.datasets import generate_corpus, get_problem
    from repro.engine import RepairCaches

    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 6, seed=11)
    clusters = cluster_programs(
        [parse_python_source(s) for s in corpus.correct_sources], problem.cases
    ).clusters
    pairs = []
    for source in corpus.incorrect_sources:
        implementation = parse_python_source(source)
        for cluster in clusters:
            location_map = structural_match(implementation, cluster.representative)
            if location_map is not None:
                unbounded = generate_local_repairs(implementation, cluster, location_map)
                pairs.append((implementation, cluster, location_map, unbounded))
    cheapest = [
        repair_against_cluster(implementation, cluster, location_map=location_map)
        for implementation, cluster, location_map, _ in pairs
    ]
    costs = sorted({repair.cost for repair in cheapest if repair is not None})
    assert pairs and costs

    generated = []
    original = repair_module.generate_local_repairs

    def spy(*args, **kwargs):
        generated.append(original(*args, **kwargs))
        return generated[-1]

    monkeypatch.setattr(repair_module, "generate_local_repairs", spy)
    caches = RepairCaches()
    refuted = {"empty": 0, "sum": 0}
    for (implementation, cluster, location_map, unbounded), own in zip(pairs, cheapest):
        # Just above the pair's own cost, the rule must not refute.
        tight = [own.cost + 1] if own is not None else []
        for bound in [None, *costs, *tight]:
            repair = repair_against_cluster(
                implementation,
                cluster,
                location_map=location_map,
                caches=caches,
                cost_bound=bound,
            )
            reference = _reference_repair(
                implementation, cluster, location_map, unbounded, bound
            )
            assert repair_fields(repair) == repair_fields(reference), (bound, cluster.cluster_id)
            candidates = generated[-1]
            if all(site.fixed for site in candidates):
                # Generation stops at the fixed site that refutes.
                assert repair is None
                refuting = candidates[list(candidates)[-1]]
                refuted["sum" if refuting else "empty"] += 1
    assert refuted["empty"] > 0 and refuted["sum"] > 0, refuted


_LOOP_CORRECT = """
def f(n):
    s = 0
    i = 0
    while i < n:
        s = s + i
        i = i + 1
    return s
"""

# A wrong loop condition (cheapest fix costs 1) and a wrong return
# expression (cheapest fix costs 2): the cheapest repair costs 3.
_LOOP_ATTEMPT = """
def f(n):
    s = 0
    i = 0
    while i <= n:
        s = s + i
        i = i + 1
    return s + 1
"""


@pytest.mark.parametrize(
    "bound, refuting",
    [
        (1.0, ["$cond"]),  # the loop condition has no candidate under 1
        (2.0, ["$cond", "$ret"]),  # the return has none under 2
        (3.0, ["$cond", "$ret"]),  # both have one, but 1 + 2 reaches 3
    ],
)
def test_refuted_cluster_generates_only_fixed_sites_and_solves_nothing(
    monkeypatch, bound, refuting
):
    import repro.core.localrepair as localrepair_module
    import repro.core.repair as repair_module
    from repro.core.inputs import InputCase

    cases = [InputCase(args=(k,), expected_return=sum(range(k))) for k in (0, 1, 3, 5)]
    cluster = cluster_programs([parse_python_source(_LOOP_CORRECT)], cases).clusters[0]
    implementation = parse_python_source(_LOOP_ATTEMPT)
    unbounded = generate_local_repairs(
        implementation,
        cluster,
        structural_match(implementation, cluster.representative),
    )
    assert repair_against_cluster(implementation, cluster, cost_bound=4.0).cost == 3.0

    sites_generated = []
    original_sites = localrepair_module._site_candidates

    def site_spy(cluster, rep_loc, var, *args, **kwargs):
        sites_generated.append(var)
        return original_sites(cluster, rep_loc, var, *args, **kwargs)

    generated = []
    original_generate = repair_module.generate_local_repairs

    def generate_spy(*args, **kwargs):
        generated.append(original_generate(*args, **kwargs))
        return generated[-1]

    def no_ilp(*args, **kwargs):
        raise AssertionError("a refuted cluster must not build or solve an ILP")

    monkeypatch.setattr(localrepair_module, "_site_candidates", site_spy)
    monkeypatch.setattr(repair_module, "generate_local_repairs", generate_spy)
    monkeypatch.setattr(repair_module, "_build_ilp", no_ilp)
    monkeypatch.setattr(repair_module, "solve_fast", no_ilp)

    assert repair_against_cluster(implementation, cluster, cost_bound=bound) is None
    assert sites_generated == refuting
    (candidates,) = generated
    fixed_sites = [site for site in unbounded if site.fixed]
    assert list(candidates) == fixed_sites[: len(refuting)]
    assert [site.var for site in candidates] == refuting


# -- best-first cluster search ---------------------------------------------------------

_TIE_PROGRAM = """
def f(n):
    s = {init}
    i = 0
    while i < n:
        s = s + i
        i = i + 1
    return {ret}
"""


def _tie_clusters(cluster_ids):
    """Two programs, each as clusters of different sizes.  Against
    ``s = 1 … return s`` a "B" cluster (``s = 1 … return s - 1``) costs 2,
    all of it on the return (fixed-site floor 2), and an "A" cluster
    (``s = 0 - 1 … return s``) costs 2 on the ordinary ``s = …`` site
    (floor 0): every cluster ties, and the floor order puts the "A"
    clusters first, whatever their rank."""
    from repro.core.inputs import InputCase

    cases = [InputCase(args=(k,)) for k in (0, 1, 3, 5)]
    shapes = [("1", "s - 1", 3), ("0 - 1", "s", 1), ("1", "s - 1", 1), ("0 - 1", "s", 2)]
    clusters = []
    for (init, ret, size), cluster_id in zip(shapes, cluster_ids):
        source = _TIE_PROGRAM.format(init=init, ret=ret)
        (cluster,) = cluster_programs(
            [parse_python_source(source) for _ in range(size)], cases
        ).clusters
        cluster.cluster_id = cluster_id
        clusters.append(cluster)
    return clusters


#: (init, ret) of the attempts searched against :func:`_tie_clusters`.
_TIE_ATTEMPTS = [
    ("1", "s"),  # every cluster costs 2
    ("0 - 1", "s - 1"),  # every cluster costs 2, floors swapped
    ("0", "s"),  # "A" clusters cost 2, "B" clusters 3
    ("1", "s - 1"),  # a "B" cluster's own program: cost 0
]


def _floor(implementation, cluster):
    location_map = structural_match(implementation, cluster.representative)
    return fixed_site_floor(generate_fixed_sites(implementation, cluster, location_map))


def test_best_first_search_breaks_ties_like_canonical_order():
    """Planted equal-cost ties between clusters of different sizes, ids and
    fixed-site floors, in seeded random input orders: the bounded search
    returns, field for field, the unbounded search's repair, and that is
    the repair of the tied cluster ranked first in canonical order
    (decreasing size, then ascending id), each cluster repaired alone.
    Some ties are first found by a later-ranked cluster with a lower floor,
    so an earlier-ranked cluster must still be able to match its cost."""
    import random

    from repro.engine import RepairCaches

    rng = random.Random(24)
    found_later_first = 0
    for _ in range(6):
        clusters = _tie_clusters(rng.sample(range(10), 4))
        rng.shuffle(clusters)
        for init, ret in _TIE_ATTEMPTS:
            implementation = parse_python_source(_TIE_PROGRAM.format(init=init, ret=ret))
            alone = []
            for cluster in clusters:
                repair = repair_against_cluster(implementation, cluster)
                floor = _floor(implementation, cluster)
                alone.append((repair.cost, -cluster.size, cluster.cluster_id, floor, repair))
            expected = min(alone, key=lambda entry: entry[:3])
            tied_floors = [entry[3] for entry in alone if entry[0] == expected[0]]
            found_later_first += min(tied_floors) < expected[3]

            bounded = find_best_repair(implementation, clusters, caches=RepairCaches())
            unbounded = find_best_repair(
                implementation, clusters, caches=RepairCaches(enabled=False), cost_bound=False
            )
            assert repair_fields(bounded) == repair_fields(unbounded)
            assert repair_fields(bounded) == repair_fields(expected[4])
    assert found_later_first > 0


def _spy_on_searched_clusters(monkeypatch):
    import repro.core.repair as repair_module

    searched = []
    original = repair_module.repair_against_cluster

    def spy(implementation, cluster, **kwargs):
        searched.append(cluster.cluster_id)
        return original(implementation, cluster, **kwargs)

    monkeypatch.setattr(repair_module, "repair_against_cluster", spy)
    return searched


def test_best_first_search_visits_clusters_in_floor_order(monkeypatch):
    """On the derivatives corpus, every matched cluster with candidates on
    all its fixed sites is repaired in ``(floor, canonical rank)`` order
    without a bound; with one, the search repairs a subsequence of that
    order that includes the winner."""
    from repro.datasets import generate_corpus, get_problem
    from repro.engine import RepairCaches
    from repro.frontend.errors import UnsupportedFeatureError

    corpus = generate_corpus(get_problem("derivatives"), 30, 20, seed=7)
    clusters = cluster_programs(
        [parse_python_source(s) for s in corpus.correct_sources], corpus.problem.cases
    ).clusters
    canonical = sorted(clusters, key=lambda c: (-c.size, c.cluster_id))
    attempts = []
    for source in corpus.incorrect_sources:
        try:
            attempts.append(parse_python_source(source))
        except UnsupportedFeatureError:
            continue
    searched = _spy_on_searched_clusters(monkeypatch)
    reordered = 0
    for implementation in attempts:
        floors = []
        for rank, cluster in enumerate(canonical):
            if structural_match(implementation, cluster.representative) is not None:
                floor = _floor(implementation, cluster)
                if floor is not None:
                    floors.append((floor, rank, cluster.cluster_id))
        order = [cluster_id for _, _, cluster_id in sorted(floors)]
        reordered += order != [cluster_id for _, _, cluster_id in floors]

        searched.clear()
        unbounded = find_best_repair(
            implementation, clusters, caches=RepairCaches(), cost_bound=False
        )
        assert searched == order
        searched.clear()
        bounded = find_best_repair(implementation, clusters, caches=RepairCaches())
        assert searched == [cluster_id for cluster_id in order if cluster_id in searched]
        assert repair_fields(bounded) == repair_fields(unbounded)
        if bounded is not None:
            assert bounded.cluster_id in searched
    assert reordered > 0, "floor order must differ from canonical order somewhere"


@pytest.mark.parametrize(
    "timeout, prepassed, searched, winner",
    [
        # The budget ends in the pre-pass: nothing is searched.
        (1.5, 2, [], None),
        # It ends after the first cluster in floor order, "A" cluster 3.
        (4.5, 4, [3], 3),
        # "A" cluster 1, ranked after it, cannot beat it, and the canonical
        # winner, "B" cluster 0, does not fit in the budget.
        (5.5, 4, [3, 1], 3),
        # With time for all, "B" cluster 0 takes the tie and "B" cluster 2,
        # whose floor reaches the bound, is skipped.
        (99.0, 4, [3, 1, 0], 0),
    ],
)
def test_timeout_takes_clusters_in_floor_order(monkeypatch, timeout, prepassed, searched, winner):
    """A clock that steps one second per cluster of work (a fixed-site
    pre-pass or a repair): the budget is checked before every cluster of
    both steps, and what fits is taken in floor order."""
    import types

    import repro.core.repair as repair_module

    clusters = _tie_clusters([0, 1, 2, 3])
    implementation = parse_python_source(_TIE_PROGRAM.format(init="1", ret="s"))
    searched_ids = _spy_on_searched_clusters(monkeypatch)
    generated = []
    original_fixed = repair_module.generate_fixed_sites

    def fixed_spy(*args, **kwargs):
        generated.append(args[1].cluster_id)
        return original_fixed(*args, **kwargs)

    monkeypatch.setattr(repair_module, "generate_fixed_sites", fixed_spy)
    clock = types.SimpleNamespace(perf_counter=lambda: float(len(generated) + len(searched_ids)))
    monkeypatch.setattr(repair_module, "time", clock)

    best = find_best_repair(implementation, clusters, timeout=timeout)
    assert generated == [0, 3, 1, 2][:prepassed]  # canonical order
    assert searched_ids == searched
    assert (best.cluster_id if best is not None else None) == winner


# -- the candidate-site memo -----------------------------------------------------------


def _local_repairs(implementation, cluster, caches, cost_bound=None):
    location_map = structural_match(implementation, cluster.representative)
    return generate_local_repairs(
        implementation, cluster, location_map, caches=caches, cost_bound=cost_bound
    )


def _uncached(implementation, cluster, cost_bound=None):
    from repro.engine import RepairCaches

    return candidate_fields(
        _local_repairs(implementation, cluster, RepairCaches(enabled=False), cost_bound)
    )


def test_site_memo_serves_a_renamed_twin_field_identically(paper_sources, deriv_cluster):
    """The twin renames ``new``/``i`` so that sorting by real names orders
    the relations differently from the canonical ``#i`` positions: the memo
    serves the original's canonical candidates unchanged, and the repair
    decoded from them still matches the uncached one."""
    from repro.engine import RepairCaches

    original = parse_python_source(paper_sources["I1"])
    twin = original.rename_variables({"new": "znew", "i": "ai"})
    caches = RepairCaches()
    first = candidate_fields(_local_repairs(original, deriv_cluster, caches))
    misses = caches.stats.site_misses
    assert caches.stats.site_hits == 0 and misses > 0

    served = candidate_fields(_local_repairs(twin, deriv_cluster, caches))
    assert caches.stats.site_misses == misses
    assert caches.stats.site_hits == misses
    assert served == _uncached(twin, deriv_cluster)
    assert [site for site, _ in served] != [site for site, _ in first]
    assert [lists for _, lists in served] == [lists for _, lists in first]
    assert any(
        len(fields[1]) > 1 for _, site in served for fields in site
    ), "the twin must have multi-variable relations"

    clusters = [deriv_cluster]
    assert_repairs_field_identical(
        [find_best_repair(twin, clusters, caches=caches)],
        [find_best_repair(twin, clusters, caches=RepairCaches(enabled=False))],
    )


def test_site_memo_cost_bounds(paper_sources, deriv_cluster):
    from repro.engine import RepairCaches

    implementation = parse_python_source(paper_sources["I2"])
    costs = sorted(
        fields[3]
        for _, site in _uncached(implementation, deriv_cluster)
        for fields in site
        if fields[3] > 0
    )
    bound = float(costs[len(costs) // 2])

    # Unbounded first: every narrower query is a hit, with no TED work.
    caches = RepairCaches()
    _local_repairs(implementation, deriv_cluster, caches)
    dp_runs, misses = caches.ted.dp_runs, caches.stats.site_misses
    for narrower in (bound, 1.0, 0):
        served = candidate_fields(_local_repairs(implementation, deriv_cluster, caches, narrower))
        assert served == _uncached(implementation, deriv_cluster, narrower)
        assert caches.ted.dp_runs == dp_runs
        assert caches.stats.site_misses == misses
    # Keep candidates (cost 0) survive even a zero bound, as on the direct path.
    assert any(fields[2] is None for _, site in served for fields in site)

    # Bounded first: a wider bound, or none, has to recompute.
    caches = RepairCaches()
    _local_repairs(implementation, deriv_cluster, caches, bound)
    for wider in (bound + 2, None):
        misses = caches.stats.site_misses
        served = candidate_fields(_local_repairs(implementation, deriv_cluster, caches, wider))
        assert served == _uncached(implementation, deriv_cluster, wider)
        assert caches.stats.site_misses > misses


def test_site_memo_sees_changed_pools(paper_sources, deriv_cases):
    from repro.core.matching import find_matching
    from repro.core.pipeline import Clara
    from repro.engine import RepairCaches

    implementation = parse_python_source(paper_sources["I1"])
    c1, c2 = (parse_python_source(paper_sources[name]) for name in ("C1", "C2"))

    # A pool that grows through add_member.
    cluster = cluster_programs([c1], deriv_cases).clusters[0]
    caches = RepairCaches()
    before = candidate_fields(_local_repairs(implementation, cluster, caches))
    witness = find_matching(c2, cluster.representative, deriv_cases)
    assert witness is not None
    cluster.add_member(c2, witness)
    after = candidate_fields(_local_repairs(implementation, cluster, caches))
    assert after == _uncached(implementation, cluster)
    assert after != before

    # Pools replaced by the representative-only ablation.
    cluster = cluster_programs([c1, c2], deriv_cases).clusters[0]
    caches = RepairCaches()
    before = candidate_fields(_local_repairs(implementation, cluster, caches))
    Clara._restrict_to_representative(cluster)
    after = candidate_fields(_local_repairs(implementation, cluster, caches))
    assert after == _uncached(implementation, cluster)
    assert after != before


def test_site_memo_is_emptied_by_clear_and_drop_repair_memos(paper_sources, deriv_cluster):
    from repro.engine import RepairCaches

    implementation = parse_python_source(paper_sources["I1"])
    caches = RepairCaches()
    for empty in (caches.clear, lambda: caches.drop_repair_memos(object())):
        _local_repairs(implementation, deriv_cluster, caches)
        assert caches.entry_counts()["candidate_sites"] == caches.stats.site_misses > 0
        empty()
        assert caches.entry_counts()["candidate_sites"] == 0
        caches.stats.site_misses = 0

    uncached = RepairCaches(enabled=False)
    _local_repairs(implementation, deriv_cluster, uncached)
    assert uncached.entry_counts()["candidate_sites"] == 0
    assert uncached.stats.site_hits == uncached.stats.site_misses == 0


def test_site_memo_is_shared_safely_across_threads(paper_sources, deriv_cases):
    """More threads than cores repair renamed twins through one cache with
    a short switch interval: every result equals the uncached reference,
    and no lookup is lost from the hit/miss counters."""
    import threading

    from repro.engine import RepairCaches

    clusters = [
        cluster_programs([parse_python_source(paper_sources[name])], deriv_cases).clusters[0]
        for name in ("C1", "C2")
    ]
    clusters[1].cluster_id = 1
    twins = [
        parse_python_source(paper_sources[name]).rename_variables(
            {"i": f"i{index}", "result": f"r{index}", "new": f"n{index}"}
        )
        for index in range(4)
        for name in ("I1", "I2")
    ]
    expected = [
        repair_fields(find_best_repair(twin, clusters, caches=RepairCaches(enabled=False)))
        for twin in twins
    ]
    sequential = RepairCaches()
    for twin in twins:
        find_best_repair(twin, clusters, caches=sequential)
    lookups = sequential.stats.site_hits + sequential.stats.site_misses

    shared = RepairCaches()
    results: dict[int, object] = {}

    def work(index):
        results[index] = repair_fields(find_best_repair(twins[index], clusters, caches=shared))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(twins))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(len(twins))] == expected
    assert shared.stats.site_hits + shared.stats.site_misses == lookups
