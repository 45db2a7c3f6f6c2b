"""Benchmark — the ILP solver fast path vs plain branch-and-bound.

Collects every repair-selection ILP (paper Def. 5.5) a resubmission stream
of incorrect attempts would pose — each attempt matched against each
structurally compatible cluster, with every attempt submitted twice, as
students resubmit — and solves the stream three ways:

* the **baseline**: :func:`repro.ilp.solver.solve` — one cold
  branch-and-bound per problem occurrence (the pre-fast-path behaviour,
  kept as the executable specification);
* the **fast path**: :func:`repro.ilp.solve_fast` with a shared
  :class:`repro.ilp.SolveCache` — memoisation of each problem as built;
* the **warm-started path**: per attempt, the best objective over earlier
  clusters bounds each later solve (the ``cost_bound`` threading of
  :func:`repro.core.repair.find_best_repair`), pruning branches that
  cannot win.

Every fast-path outcome must be objective-identical to the baseline, and
the warm-started per-attempt winners must equal the baseline winners.  The
fast path must explore at most 1/NODE_REDUCTION_THRESHOLD of the baseline's
branch-and-bound nodes.  All committed metrics are counters — deterministic
for the seeded corpus, independent of hash seed and machine — written to
``results/solver_fastpath.json``; wall-clock timings go to the gitignored
``results/local/solver_fastpath_timings.json``.
"""

from __future__ import annotations

import json
import time

from repro.core.clustering import cluster_programs
from repro.core.localrepair import generate_local_repairs
from repro.core.matching import structural_match
from repro.core.repair import _build_ilp
from repro.datasets import generate_corpus, get_problem
from repro.frontend import parse_python_source
from repro.ilp import InfeasibleError, SolveCache, solve, solve_fast

#: Reduction gate: the fast path must explore at most
#: 1/NODE_REDUCTION_THRESHOLD of the baseline's branch-and-bound nodes.
NODE_REDUCTION_THRESHOLD = 2.0


def _objective_and_nodes(solve_once):
    """Run one solve; return ``(objective | None, nodes_explored)``."""
    try:
        solution = solve_once()
    except InfeasibleError as error:
        return None, error.nodes_explored
    if solution is None:  # bounded fast-path solve that cannot beat the bound
        return None, 0
    return solution.objective, solution.nodes_explored


def _collect_problem_stream():
    """The (attempt, cluster) ILPs of a duplicated-attempt derivatives run.

    Returns a list of per-attempt lists of problems, clusters in the
    canonical (-size, cluster_id) order :func:`find_best_repair` ranks
    them by.
    """
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 14, 8, seed=2018)
    correct = [parse_python_source(s) for s in corpus.correct_sources]
    clusters = cluster_programs(correct, problem.cases).clusters
    ordered = sorted(clusters, key=lambda c: (-c.size, c.cluster_id))

    attempts = [parse_python_source(s) for s in corpus.incorrect_sources]
    attempts = attempts + attempts  # the resubmission stream
    stream = []
    for attempt in attempts:
        per_attempt = []
        for cluster in ordered:
            location_map = structural_match(attempt, cluster.representative)
            if location_map is None:
                continue
            candidates = generate_local_repairs(attempt, cluster, location_map)
            ilp, _ = _build_ilp(attempt, cluster, candidates)
            per_attempt.append(ilp)
        stream.append(per_attempt)
    return problem.name, stream


def test_solver_fastpath(benchmark, results_dir, local_results_dir):
    problem_name, stream = _collect_problem_stream()
    flat = [ilp for per_attempt in stream for ilp in per_attempt]
    assert flat, "the corpus must pose at least one repair ILP"

    # Baseline pass: one cold branch-and-bound per problem occurrence.
    baseline_started = time.perf_counter()
    baseline = [_objective_and_nodes(lambda p=p: solve(p)) for p in flat]
    baseline_elapsed = time.perf_counter() - baseline_started
    baseline_nodes = sum(nodes for _, nodes in baseline)

    # Fast-path pass: shared memo over the same stream.
    cache = SolveCache()
    fast_started = time.perf_counter()
    fast = [_objective_and_nodes(lambda p=p: solve_fast(p, cache=cache)) for p in flat]
    fast_elapsed = time.perf_counter() - fast_started

    # Objective identity, problem for problem (infeasibility included).
    assert [objective for objective, _ in fast] == [
        objective for objective, _ in baseline
    ]
    counters = cache.counters()
    fast_nodes = counters["nodes_explored"]
    assert sum(nodes for _, nodes in fast) == fast_nodes
    assert counters["hits"] + counters["misses"] == len(flat)
    assert counters["hits"] >= len(flat) // 2  # the duplicated half memoises
    node_reduction = baseline_nodes / max(1, fast_nodes)
    assert node_reduction >= NODE_REDUCTION_THRESHOLD, (
        f"fast path explored {fast_nodes} nodes vs {baseline_nodes} baseline "
        f"({node_reduction:.2f}x < {NODE_REDUCTION_THRESHOLD}x reduction)"
    )

    # Warm-started pass: thread the per-attempt best objective into each
    # later cluster's solve, as a cost-bounded search in canonical order would.
    # The per-attempt winner must match the baseline winner.
    warm_nodes = 0
    index = 0
    warm_started = time.perf_counter()
    for per_attempt in stream:
        best = None
        baseline_best = None
        for ilp in per_attempt:
            objective, nodes = _objective_and_nodes(
                lambda: solve_fast(ilp, upper_bound=best)
            )
            warm_nodes += nodes
            if objective is not None and (best is None or objective < best):
                best = objective
            ref_objective, _ = baseline[index]
            index += 1
            if ref_objective is not None and (
                baseline_best is None or ref_objective < baseline_best
            ):
                baseline_best = ref_objective
        assert best == baseline_best
    warm_elapsed = time.perf_counter() - warm_started
    assert warm_nodes <= baseline_nodes

    # Committed artifact: counters only — deterministic for the seeded corpus
    # and identical on every machine and hash seed.
    payload = {
        "problem": problem_name,
        "attempts": len(stream),
        "problems_posed": len(flat),
        "node_reduction_threshold": NODE_REDUCTION_THRESHOLD,
        "baseline_nodes": baseline_nodes,
        "fastpath_nodes": fast_nodes,
        "node_reduction": round(node_reduction, 2),
        "warm_start_nodes": warm_nodes,
        "solve_cache": counters,
        "infeasible_problems": sum(
            1 for objective, _ in baseline if objective is None
        ),
    }
    (results_dir / "solver_fastpath.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print("\n" + json.dumps(payload, indent=2))

    timings = {
        "baseline_pass_seconds": round(baseline_elapsed, 6),
        "fastpath_pass_seconds": round(fast_elapsed, 6),
        "warm_start_pass_seconds": round(warm_elapsed, 6),
        "fastpath_speedup": round(baseline_elapsed / max(fast_elapsed, 1e-9), 2),
    }
    (local_results_dir / "solver_fastpath_timings.json").write_text(
        json.dumps(timings, indent=2) + "\n"
    )

    # Benchmarked unit: re-solving the full problem stream against a warm
    # memo (the steady state a long-lived service runs in).
    benchmark(
        lambda: [_objective_and_nodes(lambda p=p: solve_fast(p, cache=cache)) for p in flat]
    )
