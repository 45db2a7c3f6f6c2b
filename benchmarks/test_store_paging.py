"""Benchmark E10 — lazy segment paging of the indexed (v3) cluster store.

The v3 store splits a clustering into a header plus per-fingerprint-bucket
segment files (``docs/STORAGE.md``); opening a store reads only the header
and each repair pages in just the segments whose CFG-skeleton digest
matches the attempt.  This benchmark builds a widened derivatives store
whose pool contains two distinct CFG shapes — the generated single-loop
family plus a hand-written two-loop solution — and checks that

* opening the store loads **zero** segments;
* repairing one attempt loads **strictly fewer** segments than the store
  holds (the acceptance bar: header + matched bucket only);
* a full incorrect batch still never pages the shape it cannot match.

Deterministic paging counters (segment/cluster loads and skips per
scenario) are committed to ``results/store_paging.json``; wall-clock
numbers go to the gitignored ``results/local/store_paging_timings.json``.
The benchmarked unit is one cold lazy open plus a single-attempt repair.
"""

from __future__ import annotations

import json
import time

from repro import Clara
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchRepairEngine

from conftest import bench_scale

#: Correct two-loop strategy: a CFG shape the generated pool never emits,
#: so its segment is skippable by every single-loop attempt (and vice
#: versa).
TWO_LOOP = (
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

#: Same two-loop shape, wrong scaling — pages exactly one segment.
TWO_LOOP_BROKEN = TWO_LOOP.replace("float(i*poly[i])", "float(poly[i])")


def _build_store(tmp_path):
    correct, incorrect = bench_scale()
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, max(2 * correct, 30), incorrect, seed=2018)
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    path = clara.save_clusters(tmp_path / "derivatives.json", problem="derivatives")
    return problem, corpus, path


def _lazy_engine(problem, path):
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    return BatchRepairEngine.from_store(path, clara)


def test_store_paging(benchmark, results_dir, local_results_dir, tmp_path):
    build_started = time.perf_counter()
    problem, corpus, path = _build_store(tmp_path)
    build_time = time.perf_counter() - build_started

    # Scenario 1: open is header-only.
    open_started = time.perf_counter()
    engine = _lazy_engine(problem, path)
    open_time = time.perf_counter() - open_started
    at_open = engine.clara.store_paging()
    assert at_open["segments_loaded"] == 0
    assert at_open["clusters_loaded"] == 0

    # Scenario 2: one attempt pages only its skeleton's segments.
    single_started = time.perf_counter()
    record = engine.run([TWO_LOOP_BROKEN]).records[0]
    single_time = time.perf_counter() - single_started
    assert record.status == "repaired"
    single = engine.clara.store_paging()
    assert single["segments_loaded"] < single["segments_total"], (
        f"repairing one attempt paged all {single['segments_total']} segments "
        "- lazy loading is not pruning anything"
    )
    assert single["segments_loaded"] == 1

    # Scenario 3: a full incorrect batch (all single-loop shapes) must
    # never touch the two-loop segment.
    batch_engine = _lazy_engine(problem, path)
    batch_started = time.perf_counter()
    report = batch_engine.run(corpus.incorrect_sources)
    batch_time = time.perf_counter() - batch_started
    batch = batch_engine.clara.store_paging()
    assert batch["segments_loaded"] < batch["segments_total"]

    payload = {
        "problem": "derivatives",
        "correct_pool": len(corpus.correct_sources) + 1,
        "incorrect_batch": len(corpus.incorrect_sources),
        "at_open": at_open,
        "after_single_attempt": single,
        "after_incorrect_batch": batch,
        "single_attempt_status": record.status,
        "batch_statuses": {
            status: count for status, count in report.status_histogram().items()
        },
    }
    (results_dir / "store_paging.json").write_text(json.dumps(payload, indent=2) + "\n")
    (local_results_dir / "store_paging_timings.json").write_text(
        json.dumps(
            {
                "build_time": round(build_time, 4),
                "open_time": round(open_time, 4),
                "single_attempt_time": round(single_time, 4),
                "batch_time": round(batch_time, 4),
            },
            indent=2,
        )
        + "\n"
    )
    print("\n" + json.dumps(payload, indent=2))

    # Steady-state unit: one cold lazy open plus a single-attempt repair.
    def cold_single_repair():
        fresh = _lazy_engine(problem, path)
        return fresh.run([TWO_LOOP_BROKEN]).records[0].status

    assert benchmark(cold_single_repair) == "repaired"
