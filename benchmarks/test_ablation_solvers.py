"""Ablation A2 — ILP solver vs exhaustive enumeration over variable relations.

The repair selection (Def. 5.5) is solved by our branch-and-bound 0-1 ILP
solver (the paper uses lpsolve).  An independent exhaustive oracle that
enumerates total variable relations
(``tests/helpers/repair_ilp.solve_by_enumeration``) is used as a correctness
cross-check: the cheapest oracle cost over the attempt's matched clusters
must equal the cost of the repair the pipeline selects.  Statuses and
optimum costs are committed to ``results/ablation_solvers.json``; the
per-attempt timings are machine-dependent and go to the gitignored
``results/local/ablation_solver_timings.json``.
"""

from __future__ import annotations

import json
import time

from helpers.repair_ilp import solve_by_enumeration

from repro.core.localrepair import generate_local_repairs
from repro.core.matching import structural_match
from repro.core.pipeline import Clara, RepairStatus
from repro.datasets import generate_corpus, get_problem

#: The statuses the repair selection decides; the others are settled before
#: it runs (parse errors, no structural match), so the oracle inherits them.
_SELECTION_STATUSES = {RepairStatus.REPAIRED, RepairStatus.NO_REPAIR}


def _build(problem_name: str) -> Clara:
    problem = get_problem(problem_name)
    corpus = generate_corpus(problem, 10, 0, seed=13)
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources(corpus.correct_sources)
    return clara


def _oracle_cost(clara: Clara, source: str) -> float | None:
    """The cheapest oracle cost over the clusters the attempt matches."""
    program = clara.parse(source)
    costs = []
    for cluster in clara.clusters:
        location_map = structural_match(program, cluster.representative)
        if location_map is None:
            continue
        candidates = generate_local_repairs(program, cluster, location_map)
        cost = solve_by_enumeration(program, cluster, candidates)
        if cost is not None:
            costs.append(cost)
    return min(costs, default=None)


def test_ablation_solvers(benchmark, results_dir, local_results_dir):
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 10, 5, seed=13)
    ilp = _build("derivatives")

    attempt = corpus.incorrect_sources[0]
    outcome = benchmark(ilp.repair_source, attempt)

    records = []
    timing_records = []
    for source in corpus.incorrect_sources:
        started = time.perf_counter()
        ilp_outcome = ilp.repair_source(source)
        ilp_time = time.perf_counter() - started
        enum_status, enum_cost = ilp_outcome.status, None
        started = time.perf_counter()
        if ilp_outcome.status in _SELECTION_STATUSES:
            enum_cost = _oracle_cost(ilp, source)
            enum_status = RepairStatus.REPAIRED if enum_cost is not None else RepairStatus.NO_REPAIR
        enum_time = time.perf_counter() - started
        records.append(
            {
                "ilp_status": ilp_outcome.status,
                "enum_status": enum_status,
                "ilp_cost": ilp_outcome.repair.cost if ilp_outcome.repair else None,
                "enum_cost": enum_cost,
            }
        )
        timing_records.append(
            {"ilp_time": round(ilp_time, 5), "enum_time": round(enum_time, 5)}
        )
        # The two solvers must agree on feasibility and on the optimum cost.
        assert ilp_outcome.status == enum_status
        if ilp_outcome.repair is not None:
            assert ilp_outcome.repair.cost == enum_cost

    (results_dir / "ablation_solvers.json").write_text(json.dumps(records, indent=2) + "\n")
    (local_results_dir / "ablation_solver_timings.json").write_text(
        json.dumps(timing_records, indent=2) + "\n"
    )
    assert outcome is not None
