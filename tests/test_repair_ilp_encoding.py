"""The repair ILP's per-pair consistency rows search like per-candidate
implications.

``_build_ilp`` ties each candidate to the variable pairs of its ω with one
row per pair, ``sum(lr_i) - n * pair <= 0``, where the textbook encoding
has one implication ``lr_i -> pair`` per candidate
(:func:`helpers.repair_ilp.build_ilp_with_implications`).  Under the
solver's bound propagation both reach the same fixpoint at every node, so
on every repair ILP of the baseline corpora
(``generate_corpus(P, 30, 20, seed=7)``) the solver must return the same
values, objective and node count under both, cold and warm-started.
"""

from __future__ import annotations

import pytest
from helpers.repair_ilp import build_ilp_with_implications

from repro.core import repair as repair_module
from repro.core.pipeline import Clara
from repro.datasets import generate_corpus, get_problem
from repro.ilp import InfeasibleError, solve


def _repair_ilps(problem_name: str) -> list:
    """``(per-pair, per-candidate)`` encodings of every ILP the corpus's
    repairs build, in build order."""
    corpus = generate_corpus(get_problem(problem_name), 30, 20, seed=7)
    build = repair_module._build_ilp
    built = []

    def recording_build(implementation, cluster, candidates):
        result = build(implementation, cluster, candidates)
        reference = build_ilp_with_implications(implementation, cluster, candidates)
        built.append((result[0], reference))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repair_module, "_build_ilp", recording_build)
        clara = Clara(corpus.problem.cases)
        clara.add_correct_sources(corpus.correct_sources)
        for source in corpus.incorrect_sources:
            clara.repair_source(source)
    return built


def _outcome(problem, upper_bound=None):
    try:
        solution = solve(problem, upper_bound=upper_bound)
    except InfeasibleError as error:
        return ("infeasible", error.proven, error.nodes_explored)
    return (solution.values, solution.objective, solution.optimal, solution.nodes_explored)


@pytest.mark.parametrize("problem_name", ["derivatives", "oddTuples", "polynomials"])
def test_per_pair_rows_search_like_implications(problem_name):
    built = _repair_ilps(problem_name)
    assert len(built) >= 20
    fewer_rows = 0
    for per_pair, implications in built:
        # Same variables in the same order, same costs and choice groups:
        # only the consistency rows differ.
        assert per_pair.variables == implications.variables
        assert per_pair.cost == implications.cost
        assert per_pair.groups == implications.groups
        fewer_rows += len(per_pair.row_terms) < len(implications.row_terms)

        cold = _outcome(per_pair)
        assert cold == _outcome(implications)
        if cold[0] == "infeasible":
            continue
        optimum = cold[1]
        for bound in (optimum, optimum + 1):
            assert _outcome(per_pair, bound) == _outcome(implications, bound)
    assert fewer_rows > 0
