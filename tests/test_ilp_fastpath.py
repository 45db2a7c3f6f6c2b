"""Tests for the solver fast path: solve memoization and warm starts
(``repro.ilp.fastpath``), and for the search the
branch-and-bound solver runs.

The contract under test everywhere: :func:`repro.ilp.solve_fast` is
*objective-identical* to the spec solver :func:`repro.ilp.solver.solve` —
on optimal solves, on infeasible problems and under node limits — and the
repair pipeline produces field-identical outcomes whether or not the
:class:`repro.ilp.SolveCache` memo is enabled.  The spec solver's search
itself is pinned outcome by outcome, node counts included."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from helpers.differential import (
    assert_outcomes_field_identical,
    assert_repairs_field_identical,
)
from helpers.ilp import RecordedProblem, satisfies
from helpers.repair_ilp import add_implication

from repro.core.clustering import cluster_programs
from repro.core.pipeline import Clara
from repro.core.repair import find_best_repair
from repro.datasets import generate_corpus, get_problem
from repro.engine import RepairCaches
from repro.frontend import parse_python_source
from repro.ilp import (
    IlpProblem,
    InfeasibleError,
    SolveCache,
    solve,
    solve_fast,
)

SEED = 20180618


# -- random problem generators (Def. 5.5 shaped) --------------------------------------


def _random_def55_problem(rng: random.Random) -> RecordedProblem:
    """Choice groups + implications + arbitrary-sense rows, arbitrary costs."""
    n = rng.randint(2, 7)
    problem = RecordedProblem(minimize=rng.random() < 0.8)
    variables = [f"v{i}" for i in range(n)]
    for var in variables:
        problem.add_variable(var, objective=float(rng.randint(-4, 6)))
    for _ in range(rng.randint(1, 3)):
        problem.add_exactly_one(rng.sample(variables, rng.randint(1, n)))
    for _ in range(rng.randint(0, 2)):
        antecedent, consequent = rng.sample(variables, 2)
        add_implication(problem, antecedent, consequent)
    for _ in range(rng.randint(0, 2)):
        subset = rng.sample(variables, rng.randint(1, n))
        sense = rng.choice(["==", ">=", "<="])
        problem.add_constraint(
            {v: 1.0 for v in subset}, sense, float(rng.randint(0, len(subset)))
        )
    return problem


def _random_weighted_problem(rng: random.Random) -> RecordedProblem:
    """Rows with mixed-sign, non-unit coefficients and repeated variables."""
    n = rng.randint(3, 8)
    problem = RecordedProblem(minimize=rng.random() < 0.7)
    variables = [f"w{i}" for i in range(n)]
    for var in variables:
        problem.add_variable(var, objective=float(rng.randint(-3, 6)))
    problem.add_exactly_one(rng.sample(variables, rng.randint(2, n)))
    for _ in range(rng.randint(1, 4)):
        row = [(var, float(rng.choice([-3, -2, -1, 1, 2, 3])))
               for var in rng.sample(variables, rng.randint(1, n))]
        if rng.random() < 0.3:
            row.append((row[0][0], float(rng.choice([-2, -1, 1, 2]))))
        low = sum(min(coeff, 0.0) for _, coeff in row)
        high = sum(max(coeff, 0.0) for _, coeff in row)
        sense = rng.choice(["==", ">=", "<="])
        problem.add_constraint(row, sense, float(rng.randint(int(low), int(high))))
    return problem


def _random_assignment_problem(rng: random.Random) -> RecordedProblem:
    """Row/column exactly-one groups: a min-cost assignment by construction.

    Rows and columns may differ in size and slack variables appear only
    sometimes, so a fraction of the generated problems is (provenly)
    infeasible — no perfect matching pads the smaller side."""
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    problem = RecordedProblem()
    for i in range(rows):
        for j in range(cols):
            problem.add_variable(f"x{i}{j}", objective=float(rng.randint(-3, 9)))
    for i in range(rows):
        members = [f"x{i}{j}" for j in range(cols)]
        if rng.random() < 0.5:
            members.append(
                problem.add_variable(f"rs{i}", objective=float(rng.randint(0, 9)))
            )
        problem.add_exactly_one(members)
    for j in range(cols):
        members = [f"x{i}{j}" for i in range(rows)]
        if rng.random() < 0.5:
            members.append(
                problem.add_variable(f"cs{j}", objective=float(rng.randint(0, 9)))
            )
        problem.add_exactly_one(members)
    for k in range(rng.randint(0, 2)):
        problem.add_variable(f"free{k}", objective=float(rng.randint(-3, 3)))
    return problem


def _brute_force(problem: RecordedProblem) -> float | None:
    best = None
    for bits in itertools.product((0, 1), repeat=len(problem.variables)):
        values = dict(zip(problem.variables, bits))
        if satisfies(problem, values):
            objective = problem.objective_value(values)
            if best is None or (
                objective < best if problem.minimize else objective > best
            ):
                best = objective
    return best


def _objective_or_none(problem: IlpProblem, **kwargs) -> float | None:
    try:
        return solve_fast(problem, **kwargs).objective
    except InfeasibleError as error:
        assert error.proven, "an unlimited solve must prove infeasibility"
        return None


# -- objective identity: fast path vs the spec solver ---------------------------------


def test_solve_fast_objective_identical_on_def55_problems():
    rng = random.Random(SEED)
    for trial in range(150):
        problem = _random_def55_problem(rng)
        cache = SolveCache()
        fast = _objective_or_none(problem, cache=cache)
        try:
            spec = solve(problem).objective
        except InfeasibleError:
            spec = None
        brute = _brute_force(problem)
        assert (fast is None) == (spec is None) == (brute is None), trial
        if brute is not None:
            assert abs(fast - brute) < 1e-9 and abs(spec - brute) < 1e-9, trial
        # Second solve of the same problem is answered from the memo with
        # the same verdict.
        assert _objective_or_none(problem, cache=cache) == fast
        assert cache.hits == 1 and cache.misses == 1


# Assignment-degenerate problems (row/column exactly-one groups) are solved
# by branch-and-bound like every other problem; what a repeat solve
# dispatches to is the memo, which answers without exploring a node.


def test_memoized_assignment_problems_are_exact_and_explore_no_nodes():
    rng = random.Random(SEED)
    solved = infeasible = 0
    for trial in range(150):
        problem = _random_assignment_problem(rng)
        cache = SolveCache()
        fast = _objective_or_none(problem, cache=cache)
        assert cache.misses == 1, trial
        try:
            spec = solve(problem).objective
        except InfeasibleError:
            spec = None
        brute = _brute_force(problem)
        assert (fast is None) == (spec is None) == (brute is None), trial
        if fast is None:
            infeasible += 1
        else:
            assert abs(fast - brute) < 1e-9 and abs(spec - brute) < 1e-9, trial
            solved += 1
        # Proven verdicts (both kinds) are memoized, and the memo hit
        # explores no nodes.
        nodes = cache.nodes_explored
        assert _objective_or_none(problem, cache=cache) == fast
        assert cache.hits == 1 and cache.misses == 1, trial
        assert cache.nodes_explored == nodes, trial
    assert solved > 50 and infeasible > 10  # both regimes exercised


def test_memoized_assignment_problem_solutions_are_feasible():
    rng = random.Random(SEED + 1)
    returned = 0
    for trial in range(80):
        problem = _random_assignment_problem(rng)
        cache = SolveCache()
        try:
            solution = solve_fast(problem, cache=cache)
        except InfeasibleError:
            continue
        assert satisfies(problem, solution.values), trial
        assert solution.optimal, trial
        assert abs(problem.objective_value(solution.values) - solution.objective) < 1e-9
        memoized = solve_fast(problem, cache=cache)
        assert cache.hits == 1, trial
        assert satisfies(problem, memoized.values), trial
        assert memoized.values == solution.values, trial
        assert memoized.optimal and memoized.nodes_explored == 0, trial
        returned += 1
    assert returned > 20


# -- the memo key: the problem as built -----------------------------------------------


def _shuffled(problem: RecordedProblem, rng: random.Random) -> RecordedProblem:
    """The same problem with variables, constraints and terms reordered."""
    shuffled = RecordedProblem(minimize=problem.minimize)
    for var in sorted(problem.variables, key=lambda v: rng.random()):
        shuffled.add_variable(var, objective=problem.cost[problem.index[var]])
    records = list(problem.records)
    rng.shuffle(records)
    for coeffs, sense, rhs in records:
        coeffs = list(coeffs)
        rng.shuffle(coeffs)
        shuffled.add_constraint(coeffs, sense, rhs)
    return shuffled


def test_memo_solves_a_shuffled_problem_to_the_same_objective():
    """The key is order-sensitive, so a reordered problem may miss, but
    whatever the shared memo answers is the problem's own optimum."""
    rng = random.Random(SEED)
    for trial in range(30):
        problem = _random_def55_problem(rng)
        shuffled = _shuffled(problem, rng)
        cache = SolveCache()
        first = _objective_or_none(problem, cache=cache)
        assert _objective_or_none(shuffled, cache=cache) == first, trial
        assert _objective_or_none(problem, cache=cache) == first, trial
        assert cache.hits >= 1, trial


def _choice_problem(
    *,
    cost_b: float = 2.0,
    coeffs: tuple = (("a", 1.0), ("b", 1.0)),
    sense: str = "==",
    rhs: float = 1.0,
    minimize: bool = True,
) -> IlpProblem:
    problem = IlpProblem(minimize=minimize)
    problem.add_variable("a", objective=1.0)
    problem.add_variable("b", objective=cost_b)
    problem.add_constraint(coeffs, sense, rhs)
    return problem


def test_memo_never_shares_an_entry_between_different_problems():
    """Problems that differ only in one objective coefficient, one
    right-hand side, one sense or the optimisation direction each miss.
    So do ``a + a + b == 1`` and ``2a + b == 1``: merging the repeated
    ``a`` gives both the same row, but only the first is an "exactly one"
    group, which the search branches on."""
    cache = SolveCache()
    variants = [
        _choice_problem(),
        _choice_problem(cost_b=1.0),
        _choice_problem(rhs=2.0),
        _choice_problem(sense="<="),
        _choice_problem(minimize=False),
        _choice_problem(coeffs=[("a", 1), ("a", 1), ("b", 1)]),
        _choice_problem(coeffs=[("a", 2), ("b", 1)]),
    ]
    assert variants[-2].row_terms == variants[-1].row_terms
    assert variants[-2].groups != variants[-1].groups
    objectives = [_objective_or_none(problem, cache=cache) for problem in variants]
    assert objectives == [1.0, 1.0, 3.0, 0.0, 2.0, 2.0, 2.0]
    assert cache.hits == 0 and cache.misses == len(variants)
    assert cache.entry_counts() == {"solves": len(variants)}
    # The same problem built again is the same key.
    assert _objective_or_none(_choice_problem(), cache=cache) == 1.0
    assert cache.hits == 1


# -- node limits (boundary regression) and what may be cached -------------------------


def _hard_feasible_problem() -> RecordedProblem:
    """Small but branchy: overlapping groups, implications, a packing row."""
    problem = RecordedProblem()
    costs = {"a": 3.0, "b": 2.0, "c": 5.0, "d": 1.0, "e": 4.0, "f": 2.0}
    for var, cost in costs.items():
        problem.add_variable(var, objective=cost)
    problem.add_exactly_one(["a", "b", "c"])
    problem.add_exactly_one(["c", "d", "e"])
    problem.add_exactly_one(["e", "f", "a"])
    add_implication(problem, "d", "f")
    problem.add_constraint({"b": 1.0, "d": 1.0, "f": 1.0}, "<=", 2.0)
    return problem


def test_node_limit_boundary_always_returns_incumbent_or_unproven():
    problem = _hard_feasible_problem()
    reference = solve(problem)
    assert reference.optimal
    full_nodes = reference.nodes_explored
    assert full_nodes > 2  # the sweep below must exercise real truncation
    first_return = None
    for limit in range(1, full_nodes + 2):
        try:
            solution = solve(problem, node_limit=limit)
        except InfeasibleError as error:
            # Truncation may legitimately precede the first incumbent, but
            # then the verdict must be unproven — and once any limit admits
            # an incumbent, every larger limit must return (never raise).
            assert not error.proven
            assert first_return is None, f"raise after a return at limit={limit}"
            continue
        if first_return is None:
            first_return = limit
        assert satisfies(problem, solution.values)
        if limit <= full_nodes:
            assert not solution.optimal  # hit limit -> incumbent, optimal=False
            assert solution.nodes_explored == limit
            assert solution.objective >= reference.objective
        else:
            assert solution.optimal
            assert solution.objective == reference.objective
            assert solution.nodes_explored == full_nodes
    assert first_return is not None and first_return <= full_nodes


def test_infeasible_error_is_unproven_under_truncation():
    problem = IlpProblem()
    for var in ("a", "b", "c"):
        problem.add_variable(var)
    problem.add_exactly_one(["a", "b"])
    problem.add_exactly_one(["b", "c"])
    problem.add_exactly_one(["a", "c"])
    with pytest.raises(InfeasibleError) as full:
        solve(problem)
    assert full.value.proven and full.value.nodes_explored > 0
    with pytest.raises(InfeasibleError) as truncated:
        solve(problem, node_limit=1)
    assert not truncated.value.proven


def test_truncated_incumbents_are_not_cached():
    problem = _hard_feasible_problem()
    full_nodes = solve(problem).nodes_explored
    cache = SolveCache()
    truncated = None
    for limit in range(1, full_nodes + 1):
        try:
            truncated = solve_fast(problem, node_limit=limit, cache=cache)
            break
        except InfeasibleError:
            continue
    assert truncated is not None and not truncated.optimal
    assert cache.entry_counts() == {"solves": 0}
    # The next (unlimited) solve is a miss and runs for real ...
    exact = solve_fast(problem, cache=cache)
    assert exact.optimal and cache.hits == 0
    # ... and only then is the optimum memoized.
    assert cache.entry_counts() == {"solves": 1}
    assert solve_fast(problem, cache=cache).objective == exact.objective
    assert cache.hits == 1


def test_unproven_infeasibility_is_not_cached():
    problem = IlpProblem()
    for var in ("a", "b", "c"):
        problem.add_variable(var)
    problem.add_exactly_one(["a", "b"])
    problem.add_exactly_one(["b", "c"])
    problem.add_exactly_one(["a", "c"])
    cache = SolveCache()
    with pytest.raises(InfeasibleError):
        solve_fast(problem, node_limit=1, cache=cache)
    assert cache.entry_counts() == {"solves": 0}
    with pytest.raises(InfeasibleError):  # full solve proves it ...
        solve_fast(problem, cache=cache)
    assert cache.entry_counts() == {"solves": 1}
    with pytest.raises(InfeasibleError) as hit:  # ... and the proof is reused
        solve_fast(problem, cache=cache)
    assert hit.value.proven and cache.hits == 1


def test_empty_choice_group_is_proven_infeasible():
    # ``sum([]) == 1`` is the marker _build_ilp emits for a fixed site with
    # no candidate.  find_best_repair skips such a cluster on its fixed-site
    # floor, so only direct repair_against_cluster callers solve it; root
    # propagation refutes it before any node is explored.
    problem = IlpProblem()
    problem.add_variable("x", objective=1.0)
    problem.add_exactly_one(["x"])
    problem.add_constraint([], "==", 1.0)
    cache = SolveCache()
    with pytest.raises(InfeasibleError) as excinfo:
        solve_fast(problem, cache=cache)
    assert excinfo.value.proven and excinfo.value.nodes_explored == 0
    assert cache.misses == 1 and cache.nodes_explored == 0
    assert cache.entry_counts() == {"solves": 1}


def test_every_returned_solution_passes_is_feasible():
    """The solver accepts a leaf without re-checking its rows: each row was
    checked when its last variable was assigned, and empty rows at the root.
    Every solution :func:`solve` returns — plain, under a node-limit sweep
    and warm-started — therefore satisfies the constraints as given (the
    generators' records, read by :func:`helpers.ilp.satisfies`, not the
    rows the solver reads): on Def. 5.5-shaped and mixed-coefficient
    problems (repeated variables within a row included), with and without
    an empty ``sum([]) == 1`` row."""
    rng = random.Random(SEED + 2)
    checked = infeasible = 0
    for trial in range(300):
        if trial % 2:
            problem = _random_weighted_problem(rng)
        else:
            problem = _random_def55_problem(rng)
        if rng.random() < 0.2:
            problem.add_constraint([], "==", 1.0)
        try:
            full = solve(problem)
        except InfeasibleError:
            infeasible += 1
            continue
        margin = 1.0 if problem.minimize else -1.0
        runs = [{}, {"upper_bound": full.objective + margin}]
        runs += [{"node_limit": limit} for limit in range(1, min(full.nodes_explored, 12) + 1)]
        for kwargs in runs:
            try:
                solution = solve(problem, **kwargs)
            except InfeasibleError:
                continue
            assert satisfies(problem, solution.values), (trial, kwargs)
            checked += 1
    assert checked > 300 and infeasible > 30, (checked, infeasible)


# -- the search itself: same nodes, same answers ------------------------------------

#: sha256 of every outcome below, computed with the original solver that
#: re-propagated every row at every node and copied the assignment per
#: child.  Propagation on a trail must run the identical search.
SEARCH_DIGEST = "0c599e9ea941b2a37513fa9f83c0daef105e8226e47d489b1b347548b5f6a889"


def _search_outcome(problem: IlpProblem, **kwargs) -> tuple:
    try:
        solution = solve(problem, **kwargs)
    except InfeasibleError as error:
        return ("InfeasibleError", error.proven, error.nodes_explored)
    selected = sorted(var for var, value in solution.values.items() if value)
    return (solution.objective, solution.optimal, solution.nodes_explored, selected)


def test_search_is_pinned_outcome_by_outcome():
    """Objective, optimality, node count and selected variables of every
    solve — plain, under each node limit of a sweep, and warm-started, on
    Def. 5.5-shaped and on mixed-coefficient problems — hash to the digest
    the original solver produced."""
    rng = random.Random(SEED)
    problems = [_random_def55_problem(rng) for _ in range(150)]
    problems += [_random_weighted_problem(rng) for _ in range(150)]
    outcomes = [_search_outcome(problem) for problem in problems]
    swept = [
        problem
        for problem, outcome in zip(problems, outcomes)
        if outcome[0] != "InfeasibleError" and outcome[2] > 3
    ][:8]
    assert len(swept) == 8
    for problem in swept:
        full = solve(problem)
        for limit in range(1, full.nodes_explored + 2):
            outcomes.append(_search_outcome(problem, node_limit=limit))
        margin = 1.0 if problem.minimize else -1.0
        outcomes.append(_search_outcome(problem, upper_bound=full.objective + margin))
        outcomes.append(_search_outcome(problem, upper_bound=full.objective))
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == SEARCH_DIGEST


# -- warm starts ----------------------------------------------------------------------


def test_warm_start_returns_the_cold_solution_when_it_beats_the_bound():
    rng = random.Random(SEED)
    strict_prunes = 0
    for trial in range(100):
        problem = _random_def55_problem(rng)
        try:
            cold = solve(problem)
        except InfeasibleError:
            continue
        margin = 1.0 if problem.minimize else -1.0
        warm = solve_fast(problem, upper_bound=cold.objective + margin)
        assert warm is not None, trial
        assert warm.values == cold.values, trial
        assert warm.objective == cold.objective, trial
        if warm.nodes_explored < cold.nodes_explored:
            strict_prunes += 1
        # A bound at (or below) the optimum can never be beaten.
        assert solve_fast(problem, upper_bound=cold.objective) is None
    assert strict_prunes > 0  # the incumbent really prunes the search


def test_warm_start_applies_to_memoized_solutions():
    problem = _hard_feasible_problem()
    cache = SolveCache()
    exact = solve_fast(problem, cache=cache)
    assert solve_fast(problem, cache=cache, upper_bound=exact.objective) is None
    better = solve_fast(problem, cache=cache, upper_bound=exact.objective + 1.0)
    assert better is not None and better.objective == exact.objective
    assert cache.hits == 2  # both bounded solves were answered from the memo


def test_proven_infeasibility_outranks_the_bound():
    problem = IlpProblem()
    problem.add_variable("x")
    problem.add_constraint({"x": 1.0}, "==", 1.0)
    problem.add_constraint({"x": 1.0}, "==", 0.0)
    with pytest.raises(InfeasibleError) as excinfo:
        solve_fast(problem, upper_bound=10.0)
    assert excinfo.value.proven


# -- SolveCache ownership and plumbing -------------------------------------------------


def test_repair_caches_own_a_solve_cache():
    caches = RepairCaches()
    assert isinstance(caches.solve, SolveCache)
    assert caches.solve.enabled
    assert RepairCaches(enabled=False).solve.enabled is False

    problem = _hard_feasible_problem()
    solve_fast(problem, cache=caches.solve)
    assert caches.entry_counts()["solves"] == 1
    caches.clear()
    assert caches.entry_counts()["solves"] == 0
    counters = caches.solve.counters()
    assert counters["misses"] == 1  # counters survive clear()


def test_disabled_solve_cache_counts_misses_and_stores_nothing():
    cache = SolveCache(enabled=False)
    problem = _hard_feasible_problem()
    first = solve_fast(problem, cache=cache)
    second = solve_fast(problem, cache=cache)
    assert first.objective == second.objective
    assert cache.hits == 0 and cache.misses == 2
    assert cache.misses == 2 and cache.nodes_explored > 0
    assert cache.entry_counts() == {"solves": 0}


# -- differential end to end: SolveCache on vs off ------------------------------------


def test_repair_outcomes_identical_with_solve_cache_on_vs_off():
    """find_best_repair over a corpus (with duplicated attempts, the MOOC
    redundancy the memo targets) is field-identical with the SolveCache
    enabled vs disabled — only the solve counters may differ."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 6, seed=11)
    correct = [parse_python_source(s) for s in corpus.correct_sources]
    clusters = cluster_programs(correct, problem.cases).clusters
    attempts = [parse_python_source(s) for s in corpus.incorrect_sources * 2]

    uncached = RepairCaches()
    uncached.solve.enabled = False
    baseline = [
        find_best_repair(p, clusters, caches=uncached) for p in attempts
    ]
    cached = RepairCaches()
    memoized = [
        find_best_repair(p, clusters, caches=cached) for p in attempts
    ]

    assert_repairs_field_identical(memoized, baseline)
    assert cached.solve.hits > 0, "duplicated attempts must hit the solve memo"
    assert cached.solve.hits + cached.solve.misses == uncached.solve.misses
    assert cached.solve.nodes_explored < uncached.solve.nodes_explored


def test_pipeline_feedback_identical_with_solve_cache_on_vs_off():
    """Full pipeline differential (mirrors ``tests/test_exec_fastpath.py``):
    statuses, repairs and feedback *text* agree with the memo on and off."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 6, seed=7)

    outcomes = []
    for disable in (True, False):
        clara = Clara(problem.cases)
        if disable:
            clara.caches.solve.enabled = False
        clara.add_correct_sources(corpus.correct_sources)
        outcomes.append([clara.repair_source(s) for s in corpus.incorrect_sources])

    baseline, memoized = outcomes
    assert len(baseline) == len(memoized)
    assert_outcomes_field_identical(memoized, baseline)
