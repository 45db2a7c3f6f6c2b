"""Tests for the bipartite matching and 0-1 ILP solver substrates."""

from __future__ import annotations

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers.ilp import RecordedProblem, satisfies

from repro.graphs import hopcroft_karp, maximum_matching_size, perfect_matching
from repro.ilp import IlpProblem, InfeasibleError, solve


# -- bipartite matching ---------------------------------------------------------------


def test_perfect_matching_simple():
    left = ["a", "b"]
    right = ["x", "y"]
    edges = {"a": ["x", "y"], "b": ["y"]}
    matching = perfect_matching(left, right, edges)
    assert matching == {"a": "x", "b": "y"}


def test_perfect_matching_none_when_sizes_differ():
    assert perfect_matching(["a"], ["x", "y"], {"a": ["x", "y"]}) is None


def test_perfect_matching_none_when_blocked():
    edges = {"a": ["x"], "b": ["x"]}
    assert perfect_matching(["a", "b"], ["x", "y"], edges) is None


def test_maximum_matching_partial():
    edges = {"a": ["x"], "b": ["x"], "c": ["y"]}
    assert maximum_matching_size(["a", "b", "c"], ["x", "y"], edges) == 2


@settings(max_examples=60)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_hopcroft_karp_matches_networkx(n_left, n_right, data):
    left = [f"l{i}" for i in range(n_left)]
    right = [f"r{i}" for i in range(n_right)]
    edges = {
        u: sorted(data.draw(st.sets(st.sampled_from(right), max_size=n_right), label=u))
        for u in left
    }
    ours = hopcroft_karp(left, right, edges)
    graph = nx.Graph()
    graph.add_nodes_from(left, bipartite=0)
    graph.add_nodes_from(right, bipartite=1)
    for u, vs in edges.items():
        for v in vs:
            graph.add_edge(u, v)
    reference = nx.bipartite.maximum_matching(graph, top_nodes=left)
    assert len(ours) == sum(1 for k in reference if k in set(left))
    # result is a valid matching inside the edge relation
    assert len(set(ours.values())) == len(ours)
    assert all(v in edges[u] for u, v in ours.items())


# -- ILP problem construction -----------------------------------------------------------


def test_problem_construction_and_feasibility_check():
    problem = RecordedProblem()
    problem.add_variable("x", objective=2.0)
    problem.add_variable("y", objective=1.0)
    problem.add_exactly_one(["x", "y"])
    problem.add_implication("x", "y")
    assert satisfies(problem, {"x": 0, "y": 1})
    assert not satisfies(problem, {"x": 1, "y": 0})
    assert problem.objective_value({"x": 0, "y": 1}) == 1.0
    assert problem.cost == [2.0, 1.0]
    assert problem.groups == [(0, 1)]
    with pytest.raises(ValueError):
        problem.add_constraint({"x": 1.0}, "!!", 1.0)


def test_constraints_are_stored_as_solver_rows():
    """Each constraint becomes its row as it is added: ``(var, pos, neg)``
    terms (a repeated variable merged), activity bounds, widest
    coefficient, the range the sense allows, and each variable's rows."""
    problem = IlpProblem()
    problem.add_variable("x", objective=2.0)
    problem.add_exactly_one(["x", "y"])
    problem.add_constraint({"y": 2.0, "z": -3.0, "x": 1.0}, "<=", 1.0)
    problem.add_constraint([("x", 1.0), ("y", -1.0), ("x", 2.0)], ">=", 0.0)
    problem.add_constraint([("y", 1.0), ("y", 1.0)], "==", 1.0)
    assert problem.variables == ["x", "y", "z"]
    assert problem.cost == [2.0, 0.0, 0.0]
    assert problem.row_terms == [
        ((0, 1.0, 0.0), (1, 1.0, 0.0)),
        ((1, 2.0, 0.0), (2, 0.0, -3.0), (0, 1.0, 0.0)),
        ((0, 3.0, 0.0), (1, 0.0, -1.0)),
        ((1, 2.0, 0.0),),
    ]
    assert problem.lower == [0.0, -3.0, -1.0, 0.0]
    assert problem.upper == [2.0, 3.0, 3.0, 2.0]
    assert problem.row_widest == [1.0, 3.0, 3.0, 2.0]
    assert problem.row_min == pytest.approx([1.0, -math.inf, 0.0, 1.0], abs=1e-6)
    assert problem.row_max == pytest.approx([1.0, 1.0, math.inf, 1.0], abs=1e-6)
    assert problem.var_rows == [
        [(0, 1.0, 0.0), (1, 1.0, 0.0), (2, 3.0, 0.0)],
        [(0, 1.0, 0.0), (1, 2.0, 0.0), (2, 0.0, -1.0), (3, 2.0, 0.0)],
        [(1, 0.0, -3.0)],
    ]
    # Groups are read from the terms as given: the repeated member stays.
    assert problem.groups == [(0, 1), (1, 1)]


# -- ILP solving ----------------------------------------------------------------------


def test_solve_picks_cheapest_choice():
    problem = IlpProblem()
    for name, cost in (("a", 5.0), ("b", 2.0), ("c", 9.0)):
        problem.add_variable(name, objective=cost)
    problem.add_exactly_one(["a", "b", "c"])
    solution = solve(problem)
    assert solution.values == {"a": 0, "b": 1, "c": 0}
    assert solution.objective == 2.0


def test_solve_assignment_problem():
    # Classic 3x3 assignment problem encoded with exactly-one rows/columns.
    costs = {("r0", "c0"): 4, ("r0", "c1"): 1, ("r0", "c2"): 3,
             ("r1", "c0"): 2, ("r1", "c1"): 0, ("r1", "c2"): 5,
             ("r2", "c0"): 3, ("r2", "c1"): 2, ("r2", "c2"): 2}
    problem = IlpProblem()
    for (row, col), cost in costs.items():
        problem.add_variable(f"{row}:{col}", objective=float(cost))
    for row in ("r0", "r1", "r2"):
        problem.add_exactly_one([f"{row}:c{j}" for j in range(3)])
    for col in ("c0", "c1", "c2"):
        problem.add_exactly_one([f"r{i}:{col}" for i in range(3)])
    solution = solve(problem)
    brute = min(
        sum(costs[(f"r{i}", f"c{p}")] for i, p in enumerate(perm))
        for perm in itertools.permutations(range(3))
    )
    assert solution.objective == brute


def test_solve_respects_implications():
    problem = IlpProblem()
    problem.add_variable("cheap", objective=1.0)
    problem.add_variable("expensive", objective=10.0)
    problem.add_variable("pair", objective=0.0)
    problem.add_exactly_one(["cheap", "expensive"])
    # choosing "cheap" forces "pair", but "pair" conflicts with another choice
    problem.add_implication("cheap", "pair")
    problem.add_constraint({"pair": 1.0}, "<=", 0.0)
    solution = solve(problem)
    assert solution.values["expensive"] == 1
    assert solution.objective == 10.0


def test_infeasible_raises():
    problem = IlpProblem()
    problem.add_variable("x")
    problem.add_constraint({"x": 1.0}, "==", 1.0)
    problem.add_constraint({"x": 1.0}, "==", 0.0)
    with pytest.raises(InfeasibleError):
        solve(problem)


def test_empty_exactly_one_is_infeasible():
    problem = IlpProblem()
    problem.add_constraint([], "==", 1.0)
    with pytest.raises(InfeasibleError):
        solve(problem)


# -- property: solver agrees with brute force on random small problems -------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_solver_matches_brute_force(data):
    """Optimum and verdict agree with enumeration on small random problems
    with mixed-sign, non-unit coefficients, variables repeated within a row,
    either optimisation sense and an optional incumbent ``upper_bound``."""
    n_vars = data.draw(st.integers(2, 6), label="n_vars")
    variables = [f"v{i}" for i in range(n_vars)]
    minimize = data.draw(st.booleans(), label="minimize")
    problem = RecordedProblem(minimize=minimize)
    for var in variables:
        problem.add_variable(var, objective=float(data.draw(st.integers(-3, 6), label=var)))
    n_constraints = data.draw(st.integers(1, 4), label="n_constraints")
    for index in range(n_constraints):
        subset = data.draw(
            st.lists(st.sampled_from(variables), min_size=1, max_size=n_vars),
            label=f"c{index}",
        )
        if data.draw(st.booleans(), label=f"g{index}"):
            problem.add_exactly_one(subset)  # a choice group
            continue
        if data.draw(st.booleans(), label=f"rep{index}"):
            subset.append(subset[0])  # the same variable twice in one row
        coeffs = [
            (var, float(data.draw(st.integers(-3, 3), label=f"a{index}{var}")))
            for var in subset
        ]
        low = sum(min(coeff, 0.0) for _, coeff in coeffs)
        high = sum(max(coeff, 0.0) for _, coeff in coeffs)
        sense = data.draw(st.sampled_from(["==", ">=", "<="]), label=f"s{index}")
        rhs = data.draw(st.integers(int(low) - 1, int(high) + 1), label=f"r{index}")
        problem.add_constraint(coeffs, sense, float(rhs))
    upper_bound = data.draw(st.none() | st.integers(-12, 24), label="upper_bound")

    def better(a: float, b: float) -> bool:
        return a < b if minimize else a > b

    # brute force
    best = None
    for bits in itertools.product((0, 1), repeat=n_vars):
        assignment = dict(zip(variables, bits))
        if satisfies(problem, assignment):
            cost = problem.objective_value(assignment)
            if best is None or better(cost, best):
                best = cost

    kwargs = {} if upper_bound is None else {"upper_bound": float(upper_bound)}
    if best is None or (upper_bound is not None and not better(best, upper_bound)):
        with pytest.raises(InfeasibleError) as excinfo:
            solve(problem, **kwargs)
        # A feasible problem is never "proven" infeasible, and an unbounded
        # search always proves it.  (Under a bound, a root contradiction is
        # a proof, a bounded search that finds nothing is not.)
        if best is not None:
            assert not excinfo.value.proven
        elif upper_bound is None:
            assert excinfo.value.proven
    else:
        solution = solve(problem, **kwargs)
        assert solution.optimal
        assert satisfies(problem, solution.values)
        assert abs(solution.objective - best) < 1e-9
