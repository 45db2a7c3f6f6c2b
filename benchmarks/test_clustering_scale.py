"""Benchmark E9 — clustering throughput with fingerprint pruning on vs. off.

Clustering is the front half of the pipeline (§4, Def. 4.7) and the build
step of every cluster store.  The exhaustive procedure attempts the full
dynamic match of Fig. 4 against every existing representative; the pruned
procedure (:mod:`repro.clusterstore.fingerprint`) only attempts it inside a
program's fingerprint bucket.  On a widened generated corpus this benchmark
checks that

* pruning never changes the result — identical cluster ids, sizes and
  expression pools (provenance included) per problem;
* the pruned build runs **at least 2× fewer** full ``find_matching`` calls
  than the exhaustive build, aggregated over the corpus.

Deterministic counts (match attempts and attempts saved, bucket counts and
sizes, cluster counts) are committed to ``results/clustering_scale.json``;
machine-dependent wall-clock numbers go to the gitignored
``results/local/clustering_scale_timings.json``.  The benchmarked unit is
one pruned single-threaded cluster build of the widest corpus.
"""

from __future__ import annotations

import json
import time

from repro.core.clustering import cluster_programs
from repro.datasets import generate_corpus, get_problem
from repro.frontend import parse_source

from conftest import bench_scale

#: Problems of the MOOC experiment, clustered at a widened scale.
PROBLEMS = ["derivatives", "oddTuples", "polynomials"]

#: Minimum aggregate reduction in full dynamic-match calls.
PRUNING_THRESHOLD = 2.0


def _widened_correct_pool() -> int:
    correct, _incorrect = bench_scale()
    return max(2 * correct, 30)


def _parse_pool(problem, sources):
    return [
        parse_source(source, language=problem.language, entry=problem.entry)
        for source in sources
    ]


def test_clustering_scale(benchmark, results_dir, local_results_dir):
    n_correct = _widened_correct_pool()
    per_problem = []
    timings = []
    total_exhaustive = 0
    total_pruned = 0
    widest = None

    for problem_name in PROBLEMS:
        problem = get_problem(problem_name)
        corpus = generate_corpus(problem, n_correct, 0, seed=2018)

        started = time.perf_counter()
        exhaustive = cluster_programs(
            _parse_pool(problem, corpus.correct_sources),
            problem.cases,
            prune=False,
        )
        exhaustive_time = time.perf_counter() - started

        started = time.perf_counter()
        pruned = cluster_programs(
            _parse_pool(problem, corpus.correct_sources),
            problem.cases,
            prune=True,
        )
        pruned_time = time.perf_counter() - started

        # Pruning must be invisible in the result.
        assert pruned.signature() == exhaustive.signature()
        assert pruned.failures == exhaustive.failures

        total_exhaustive += exhaustive.stats.full_matches
        total_pruned += pruned.stats.full_matches
        per_problem.append(
            {
                "problem": problem.name,
                "correct_pool": pruned.stats.programs,
                "clusters": pruned.stats.clusters,
                "fingerprint_buckets": pruned.stats.buckets,
                "bucket_sizes": pruned.stats.bucket_sizes,
                "full_matches_exhaustive": exhaustive.stats.full_matches,
                "full_matches_pruned": pruned.stats.full_matches,
                "match_attempts_saved": exhaustive.stats.full_matches
                - pruned.stats.full_matches,
            }
        )
        timings.append(
            {
                "problem": problem.name,
                "exhaustive_time": round(exhaustive_time, 4),
                "pruned_time": round(pruned_time, 4),
            }
        )
        if widest is None or pruned.stats.programs > widest[1]:
            widest = (problem, pruned.stats.programs, corpus)

    reduction = (
        total_exhaustive / total_pruned if total_pruned else float(total_exhaustive)
    )
    payload = {
        "correct_pool_per_problem": n_correct,
        "pruning_threshold": PRUNING_THRESHOLD,
        "full_matches_exhaustive": total_exhaustive,
        "full_matches_pruned": total_pruned,
        "match_attempts_saved": total_exhaustive - total_pruned,
        "match_reduction": round(reduction, 3),
        "problems": per_problem,
    }
    (results_dir / "clustering_scale.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    (local_results_dir / "clustering_scale_timings.json").write_text(
        json.dumps({"problems": timings}, indent=2) + "\n"
    )
    print("\n" + json.dumps(payload, indent=2))

    assert reduction >= PRUNING_THRESHOLD, (
        f"fingerprint pruning reduced full matches only {reduction:.2f}x "
        f"(exhaustive {total_exhaustive} -> pruned {total_pruned}), "
        f"below the {PRUNING_THRESHOLD}x bar"
    )

    # Steady-state unit: one pruned cluster build of the widest pool.
    problem, _size, corpus = widest
    programs = _parse_pool(problem, corpus.correct_sources)
    result = benchmark(
        lambda: cluster_programs(programs, problem.cases, prune=True)
    )
    assert result.cluster_count == next(
        entry["clusters"]
        for entry in per_problem
        if entry["problem"] == problem.name
    )
