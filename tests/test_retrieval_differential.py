"""Differential property harness for the nearest-cluster retrieval prefilter.

The prefilter's contract (``repro.retrieval``): feature vectors only
*order* candidate clusters at repair time and *cut* provably-unmatchable
ones — the exact Def. 4.1 structural matching still decides everything.  These tests hold the
implementation to that contract:

* seeded random corpora, prefilter on vs off: clusterings, repair
  outcomes, feedback text and cluster assignments are field-identical;
* an adversarial store whose persisted vectors rank the true match
  *last*: the top-k cut alone would miss it, so the test fails if the
  exact-fallback ladder behind the cut is ever broken;
* feature vectors are byte-stable across ``PYTHONHASHSEED`` values and
  construction order, so persisted headers stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from helpers.differential import assert_outcomes_field_identical, outcome_fields

from repro import Clara
from repro.clusterstore import open_lazy
from repro.core.clustering import cluster_programs
from repro.datasets import generate_corpus, get_problem
from repro.frontend import parse_python_source
from repro.retrieval import (
    feature_vector,
    ranked_candidates,
    retrieval_payload,
    squared_distance,
)

#: Correct solution with a CFG skeleton the generated derivatives pool
#: never produces (two sequential loops) — and a broken attempt of the
#: same shape that only its cluster can repair.
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

TWO_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)


def _clara(spec, **kwargs):
    return Clara(cases=spec.cases, language=spec.language, entry=spec.entry, **kwargs)


# -- ranking is a permutation (the exact-fallback ladder exists) ----------------------


def test_ranked_candidates_is_a_permutation_with_nearest_head():
    query = (3, 0, 0)
    candidates = ["far", "near", "mid", "exact"]
    vectors = {"far": (9, 9, 9), "near": (3, 0, 1), "mid": (5, 0, 0), "exact": (3, 0, 0)}
    order = ranked_candidates(query, candidates, vectors.__getitem__, top_k=2)
    assert order[:2] == ["exact", "near"]
    # The tail keeps every remaining candidate in original order: a true
    # match ranked past the cut is still reachable by the exact ladder.
    assert order[2:] == ["far", "mid"]
    assert sorted(order) == sorted(candidates)


def test_squared_distance_counts_excess_coordinates():
    assert squared_distance((1, 2), (1, 2)) == 0
    assert squared_distance((1, 2), (2, 4)) == 5
    assert squared_distance((1, 2, 3), (1, 2)) == 9  # length mismatch penalised


# -- seeded corpora: prefilter on vs off is field-identical ---------------------------


@pytest.mark.parametrize(
    "problem_name,correct,incorrect,seed",
    [("derivatives", 8, 6, 11), ("derivatives", 10, 4, 3), ("oddTuples", 8, 5, 21)],
)
def test_pipeline_field_identical_prefilter_on_vs_off(
    problem_name, correct, incorrect, seed
):
    """Full pipeline over a seeded corpus: same clustering signature, same
    repair outcomes (status, repair fields incl. cluster assignment,
    feedback text) with the prefilter on and off."""
    spec = get_problem(problem_name)
    corpus = generate_corpus(spec, correct, incorrect, seed=seed)
    signatures, outcomes = [], []
    for prefilter in (False, True):
        clara = _clara(spec, retrieval_prefilter=prefilter)
        result = clara.add_correct_sources(corpus.correct_sources)
        signatures.append(result.signature())
        outcomes.append([clara.repair_source(s) for s in corpus.incorrect_sources])
        counters = clara.caches.retrieval.as_dict()
        if prefilter:
            assert counters["candidates_ranked"] > 0
        else:
            assert counters == {
                "candidates_ranked": 0,
                "matches_attempted": 0,
                "matches_skipped": 0,
                "fallbacks": 0,
            }
    off, on = outcomes
    assert signatures[0] == signatures[1]
    assert_outcomes_field_identical(on, off)


# -- adversarial: the top-k cut must never decide -------------------------------------


def test_adversarial_ranking_recovered_by_exact_fallback(tmp_path, monkeypatch):
    """A store whose persisted vectors rank the true cluster *last* (and a
    header with no skeleton digests, so nothing is pre-cut): with
    ``top_k=1`` the cut's head holds only wrong-shape clusters, and the
    repair survives purely because the exact ladder walks the tail.  The
    outcome must be field-identical to the prefilter-off run and the
    ``fallbacks`` counter must record the late match."""
    spec = get_problem("derivatives")
    corpus = generate_corpus(spec, 10, 4, seed=3)
    path = tmp_path / "derivatives.json"
    builder = _clara(spec)
    builder.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    builder.save_clusters(path, problem="derivatives")

    baseline_clara = _clara(spec, retrieval_prefilter=False)
    baseline_clara.attach_lazy_clusters(open_lazy(path, cases=spec.cases))
    baseline = baseline_clara.repair_source(TWO_LOOP_BROKEN)
    assert baseline.status == "repaired"
    true_id = baseline.repair.cluster_id

    query_vector = list(feature_vector(parse_python_source(TWO_LOOP_BROKEN)))
    header = json.loads(path.read_text())
    for entry in header["segments"]:
        # "Unknown skeleton, always page in": every cluster becomes a
        # repair candidate, so the gate really probes wrong shapes.
        entry["skeleton"] = None
        vectors = entry["retrieval"]["vectors"]
        for cluster_id in vectors:
            if int(cluster_id) == true_id:
                # Push the true match far away: with top_k=1 it can only
                # be reached through the exact-fallback tail.
                vectors[cluster_id] = [value + 1000 for value in vectors[cluster_id]]
            else:
                vectors[cluster_id] = list(query_vector)
    path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")

    monkeypatch.setattr("repro.core.pipeline.DEFAULT_TOP_K", 1)
    adversarial_clara = _clara(spec)
    adversarial_clara.attach_lazy_clusters(open_lazy(path, cases=spec.cases))
    adversarial = adversarial_clara.repair_source(TWO_LOOP_BROKEN)

    assert outcome_fields(adversarial) == outcome_fields(baseline)
    counters = adversarial_clara.caches.retrieval.as_dict()
    # The gate probed (and rejected) wrong-shape clusters before reaching
    # the true one beyond the cut — the definition of a fallback.
    assert counters["matches_attempted"] > 1
    assert counters["fallbacks"] >= 1
    assert counters["candidates_ranked"] >= counters["matches_attempted"]


# -- determinism: vectors must not depend on hash salt or construction order ----------


def _corpus_vector_digest() -> str:
    spec = get_problem("derivatives")
    corpus = generate_corpus(spec, 6, 0, seed=17)
    programs = [parse_python_source(s) for s in list(corpus.correct_sources) + [TWO_LOOP]]
    vectors = [list(feature_vector(p)) for p in programs]
    clusters = cluster_programs(programs, spec.cases).clusters
    payload = retrieval_payload(clusters)
    blob = json.dumps({"vectors": vectors, "payload": payload}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_feature_vectors_stable_across_hash_seeds():
    """Vectors and the persisted payload must not depend on the per-process
    string-hash salt — salted values would make every committed store
    header and results/ artifact irreproducible."""
    script = (
        "from test_retrieval_differential import _corpus_vector_digest\n"
        "print(_corpus_vector_digest())\n"
    )
    digests = {_corpus_vector_digest()}
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=os.path.dirname(__file__),
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, "feature vectors vary with the process hash salt"


def test_feature_vectors_independent_of_construction_order():
    spec = get_problem("derivatives")
    corpus = generate_corpus(spec, 8, 0, seed=23)
    sources = list(corpus.correct_sources) + [TWO_LOOP]
    forward = {s: feature_vector(parse_python_source(s)) for s in sources}
    backward = {s: feature_vector(parse_python_source(s)) for s in reversed(sources)}
    assert forward == backward
    programs = [parse_python_source(s) for s in sources]
    clusters = cluster_programs(programs, spec.cases).clusters
    # The payload is a pure function of cluster contents: re-deriving it,
    # in any cluster order, yields the same centroid and vector map.
    assert retrieval_payload(clusters) == retrieval_payload(list(reversed(clusters)))
