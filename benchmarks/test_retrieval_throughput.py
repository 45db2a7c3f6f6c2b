"""Benchmark E11 — nearest-cluster retrieval prefilter for the repair path.

``repro.retrieval`` derives a deterministic integer feature vector per
program and uses it to order candidate clusters nearest-first and cut the
CFG shapes that provably cannot pass the Def. 4.1 structural test.  The
exact matcher still decides every repair, so outcomes are field-identical
with the prefilter on or off; what changes is how many structural-match
computations a batch pays.

The workload widens the derivatives pool with hand-written correct
strategies of *distinct* CFG shapes (guard-first, while-loop, two-loop,
in-loop guard, ...) so the store holds many shapes while the generated
incorrect attempts concentrate on one — the regime the prefilter targets.
Gate: the prefilter-off run must perform at least
:data:`MATCH_REDUCTION_THRESHOLD` times the structural-match computations
of the prefilter-on run, with every repair record identical.

Committed metrics (``results/retrieval_throughput.json``) are counters
only — deterministic for the seeded corpus, independent of machine and
``PYTHONHASHSEED``.  Wall-clock timings go to the gitignored
``results/local/retrieval_throughput_timings.json``.  The benchmarked
steady-state unit is one candidate ranking (vector + top-k ordering), the
per-repair overhead the prefilter adds.
"""

from __future__ import annotations

import json
import time

from repro import Clara
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchRepairEngine
from repro.retrieval import (
    DEFAULT_TOP_K,
    cluster_feature_vector,
    feature_vector,
    ranked_candidates,
)

from conftest import bench_scale

#: Reduction gate: prefilter-off must run at least this multiple of the
#: prefilter-on structural-match computations.
MATCH_REDUCTION_THRESHOLD = 2.0

#: Correct computeDeriv strategies with pairwise-distinct CFG skeletons.
#: Locations track loop structure (conditions fold into a location's exit
#: guards), so distinct shapes mean distinct *loop* structure: sequential
#: loop chains of different lengths and nested accumulation.  The
#: generated corpus only emits the single-loop family, so each shape here
#: widens the store by clusters that single-loop attempts can provably
#: never match.
SHAPE_VARIANTS = [
    # Two sequential for-loops.
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n",
    # For-loop feeding a while-loop copy (same two-loop shape, different
    # dynamic behaviour: a second cluster behind one skeleton).
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    result = []\n"
    "    j = 1\n"
    "    while j < len(new):\n"
    "        result.append(new[j])\n"
    "        j = j + 1\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n",
    # Three sequential loops: scale, shift, count.
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    count = 0\n"
    "    for k in range(len(result)):\n"
    "        count = count + 1\n"
    "    if count == 0:\n"
    "        return [0.0]\n"
    "    return result\n",
    # Nested accumulation: i*poly[i] as i repeated additions.
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for i in range(1, len(poly)):\n"
    "        term = 0.0\n"
    "        for j in range(i):\n"
    "            term = term + poly[i]\n"
    "        result.append(term)\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n",
    # Nested accumulation followed by a flat copy loop.
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for i in range(1, len(poly)):\n"
    "        term = 0.0\n"
    "        for j in range(i):\n"
    "            term = term + poly[i]\n"
    "        result.append(term)\n"
    "    out = []\n"
    "    for k in range(len(result)):\n"
    "        out.append(float(result[k]))\n"
    "    if out == []:\n"
    "        return [0.0]\n"
    "    return out\n",
    # Flat copy loop followed by nested accumulation.
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(poly[i])\n"
    "    result = []\n"
    "    for i in range(1, len(new)):\n"
    "        term = 0.0\n"
    "        for j in range(i):\n"
    "            term = term + new[i]\n"
    "        result.append(term)\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n",
    # Four sequential loops: scale, shift, copy, count.
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    tmp = []\n"
    "    for j in range(1, len(new)):\n"
    "        tmp.append(new[j])\n"
    "    result = []\n"
    "    for k in range(len(tmp)):\n"
    "        result.append(tmp[k])\n"
    "    flag = 0\n"
    "    for m in range(len(result)):\n"
    "        flag = flag + 1\n"
    "    if flag == 0:\n"
    "        return [0.0]\n"
    "    return result\n",
]


def _run(problem, corpus, *, prefilter):
    """Build clusters and repair the incorrect batch; return the pieces the
    gate needs, including the repair-phase structural-match computations."""
    clara = Clara(
        cases=problem.cases,
        language=problem.language,
        entry=problem.entry,
        retrieval_prefilter=prefilter,
    )
    build_started = time.perf_counter()
    clara.add_correct_sources(list(corpus.correct_sources) + SHAPE_VARIANTS)
    build_time = time.perf_counter() - build_started
    built = clara.caches.stats.snapshot()
    repair_started = time.perf_counter()
    report = BatchRepairEngine(clara).run(corpus.incorrect_sources)
    repair_time = time.perf_counter() - repair_started
    match_computations = clara.caches.stats.match_misses - built.match_misses
    return clara, report, match_computations, build_time, repair_time


def _rows(report):
    return [
        (r.status, r.cost, r.relative_size, r.num_modified, r.feedback)
        for r in report.records
    ]


def test_retrieval_throughput(benchmark, results_dir, local_results_dir):
    correct, incorrect = bench_scale()
    problem = get_problem("derivatives")
    # Half-scale generated pool: the generated family all shares one CFG
    # shape, so an oversized pool only deepens the one shape the prefilter
    # must keep, diluting the many-shapes regime this benchmark measures.
    corpus = generate_corpus(problem, max(8, correct // 2), incorrect, seed=2018)

    off = _run(problem, corpus, prefilter=False)
    on = _run(problem, corpus, prefilter=True)
    off_clara, off_report, off_matches = off[0], off[1], off[2]
    on_clara, on_report, on_matches = on[0], on[1], on[2]

    # The prefilter must not change a single field of a single record.
    assert _rows(on_report) == _rows(off_report)
    assert on_clara.cluster_count == off_clara.cluster_count

    assert off_matches > 0
    reduction = off_matches / max(1, on_matches)
    assert reduction >= MATCH_REDUCTION_THRESHOLD, (
        f"prefilter-on ran {on_matches} structural matches vs {off_matches} "
        f"baseline ({reduction:.2f}x < {MATCH_REDUCTION_THRESHOLD}x reduction)"
    )

    counters = on_clara.caches.retrieval.as_dict()
    assert counters["candidates_ranked"] > 0
    assert counters["matches_skipped"] > 0
    assert off_clara.caches.retrieval.as_dict() == {
        "candidates_ranked": 0,
        "matches_attempted": 0,
        "matches_skipped": 0,
        "fallbacks": 0,
    }

    payload = {
        "problem": problem.name,
        "correct_pool": len(corpus.correct_sources) + len(SHAPE_VARIANTS),
        "shape_variants": len(SHAPE_VARIANTS),
        "incorrect_batch": len(corpus.incorrect_sources),
        "clusters": on_clara.cluster_count,
        "top_k": DEFAULT_TOP_K,
        "match_reduction_threshold": MATCH_REDUCTION_THRESHOLD,
        "match_reduction": round(reduction, 2),
        "match_computations_prefilter_off": off_matches,
        "match_computations_prefilter_on": on_matches,
        "retrieval": counters,
        "batch_statuses": {
            status: count for status, count in on_report.status_histogram().items()
        },
    }
    (results_dir / "retrieval_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    (local_results_dir / "retrieval_throughput_timings.json").write_text(
        json.dumps(
            {
                "build_time_off": round(off[3], 4),
                "build_time_on": round(on[3], 4),
                "repair_time_off": round(off[4], 4),
                "repair_time_on": round(on[4], 4),
            },
            indent=2,
        )
        + "\n"
    )
    print("\n" + json.dumps(payload, indent=2))

    # Steady-state unit: the per-repair overhead the prefilter adds — one
    # feature vector plus one top-k ranking over the full cluster list.
    clusters = on_clara.clusters
    attempt = on_clara.parse(corpus.incorrect_sources[0])

    def rank_once():
        return ranked_candidates(
            feature_vector(attempt),
            clusters,
            cluster_feature_vector,
            top_k=DEFAULT_TOP_K,
        )

    assert len(benchmark(rank_once)) == len(clusters)
