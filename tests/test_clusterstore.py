"""Tests for the cluster store subsystem: fingerprints, pruned/parallel
clustering, serialization round-trips and the persistence CLI."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro import Clara
from repro.cli import main as cli_main
from repro.clusterstore import (
    ClusterStoreError,
    export_clusters,
    open_lazy,
    program_fingerprint,
)
from repro.clusterstore.segments import segment_dir
from repro.clusterstore.serialize import (
    decode_expr,
    decode_program,
    encode_expr,
    encode_program,
)
from repro.core.clustering import cluster_programs
from repro.core.inputs import program_traces
from repro.datasets import generate_corpus, get_problem
from repro.datasets.variants import rename_python_variables
from repro.engine import BatchRepairEngine
from repro.frontend import parse_python_source
from repro.model.expr import Const, Op, Var


# -- fingerprints ---------------------------------------------------------------------


def test_fingerprint_invariant_under_matching(deriv_cases, paper_sources):
    """Matching programs (C1 and its renaming) share a fingerprint."""
    original = parse_python_source(paper_sources["C1"])
    renamed = parse_python_source(
        rename_python_variables(paper_sources["C1"], random.Random(7))
    )
    fp_original = program_fingerprint(original, program_traces(original, deriv_cases))
    fp_renamed = program_fingerprint(renamed, program_traces(renamed, deriv_cases))
    assert fp_original == fp_renamed
    assert fp_original.digest == fp_renamed.digest


def test_fingerprint_separates_different_strategies(deriv_cases, paper_sources):
    """A guard-first solution takes different paths, so it must not share a
    bucket with the loop-first strategy."""
    guard_first = (
        "def computeDeriv(poly):\n"
        "    if len(poly) <= 1:\n"
        "        return [0.0]\n"
        "    out = []\n"
        "    for i in range(1, len(poly)):\n"
        "        out.append(1.0*poly[i]*i)\n"
        "    return out\n"
    )
    loop_first = parse_python_source(paper_sources["C1"])
    guarded = parse_python_source(guard_first)
    fp_loop = program_fingerprint(loop_first, program_traces(loop_first, deriv_cases))
    fp_guard = program_fingerprint(guarded, program_traces(guarded, deriv_cases))
    assert fp_loop != fp_guard


@pytest.mark.parametrize("problem_name", ["derivatives", "oddTuples"])
def test_pruned_clustering_identical_to_exhaustive(problem_name):
    """Fingerprint pruning must never change the clustering — same cluster
    ids, sizes and pools (provenance included) — while running strictly
    fewer full matches on corpora with more than one cluster."""
    problem = get_problem(problem_name)
    corpus = generate_corpus(problem, 14, 0, seed=11)

    def parsed():
        return [
            parse_python_source(source, entry=problem.entry)
            for source in corpus.correct_sources
        ]

    exhaustive = cluster_programs(parsed(), problem.cases, prune=False)
    pruned = cluster_programs(parsed(), problem.cases, prune=True)
    assert pruned.signature() == exhaustive.signature()
    assert pruned.stats.full_matches <= exhaustive.stats.full_matches
    if pruned.stats.buckets > 1:
        assert pruned.stats.full_matches < exhaustive.stats.full_matches


# -- serialization --------------------------------------------------------------------


def test_expression_round_trip_preserves_value_types():
    expr = Op(
        "ListInit",
        Const([1, 2.5, "x"]),
        Const((True, None)),
        Op("Add", Var("a"), Const(0)),
    )
    decoded = decode_expr(json.loads(json.dumps(encode_expr(expr))))
    assert decoded == expr
    # list/tuple and bool/int distinctions survive JSON.
    assert isinstance(decoded.args[0].value, list)
    assert isinstance(decoded.args[1].value, tuple)
    assert decoded.args[1].value[0] is True


def test_program_round_trip_preserves_structure_key(paper_sources):
    program = parse_python_source(paper_sources["C1"])
    decoded = decode_program(json.loads(json.dumps(encode_program(program))))
    assert decoded.structure_key() == program.structure_key()
    assert decoded.source == program.source
    for loc_id in program.location_ids():
        assert decoded.locations[loc_id].name == program.locations[loc_id].name
        assert decoded.locations[loc_id].line == program.locations[loc_id].line


# -- the store ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deriv_setup():
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 12, 6, seed=2018)
    clara = Clara(cases=problem.cases)
    clara.add_correct_sources(corpus.correct_sources)
    return problem, corpus, clara


def _outcome_key(record):
    """Everything observable about an outcome except wall-clock time."""
    data = record.to_json()
    data.pop("elapsed")
    return data


def test_save_load_round_trip_preserves_repair_outcomes(deriv_setup, tmp_path):
    problem, corpus, clara = deriv_setup
    store_path = clara.save_clusters(tmp_path / "clusters.json", problem=problem.name)

    direct = BatchRepairEngine(clara, workers=1).run(corpus.incorrect_sources)

    fresh = Clara(cases=problem.cases)
    loaded_engine = BatchRepairEngine.from_store(store_path, fresh, workers=1)
    loaded = loaded_engine.run(corpus.incorrect_sources)

    assert fresh.cluster_count == clara.cluster_count
    assert fresh.cluster_sizes() == clara.cluster_sizes()
    assert [_outcome_key(r) for r in loaded.records] == [
        _outcome_key(r) for r in direct.records
    ]


def test_store_is_byte_stable(deriv_setup, tmp_path):
    problem, _corpus, clara = deriv_setup
    first = clara.save_clusters(tmp_path / "a.json", problem=problem.name)
    second = clara.save_clusters(tmp_path / "b.json", problem=problem.name)
    assert first.read_bytes() == second.read_bytes()
    # The segment files must be byte-stable too, name for name.
    first_segments = sorted(segment_dir(first).iterdir())
    second_segments = sorted(segment_dir(second).iterdir())
    assert [p.name for p in first_segments] == [p.name for p in second_segments]
    for one, other in zip(first_segments, second_segments):
        assert one.read_bytes() == other.read_bytes()


def test_store_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """``cluster build`` writes the same header and segment bytes under any
    per-process hash salt.  Translating a loop-free ``if`` once merged the
    branches' updates in set order, which made one derivatives segment
    differ between ``PYTHONHASHSEED=0`` and ``=1``."""
    trees = []
    for hash_seed in ("0", "1", "3"):
        out = tmp_path / f"hashseed-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", "build",
             "--problem", "derivatives", "--correct", "30", "--seed", "7",
             "--output", str(out / "clusters.json")],
            capture_output=True,
            check=True,
            env=env,
        )
        files = sorted(path for path in out.rglob("*") if path.is_file())
        assert len(files) > 1  # the header and its segments
        trees.append({path.relative_to(out): path.read_bytes() for path in files})
    assert trees[0] == trees[1] == trees[2]


def test_load_rejects_bumped_format_version(deriv_setup, tmp_path):
    problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json")
    document = json.loads(path.read_text())
    document["format_version"] += 1
    path.write_text(json.dumps(document))
    with pytest.raises(ClusterStoreError, match="format version"):
        open_lazy(path, cases=problem.cases)
    with pytest.raises(ClusterStoreError, match="format version"):
        BatchRepairEngine.from_store(path, Clara(cases=problem.cases))


def test_load_rejects_non_store_files(tmp_path):
    path = tmp_path / "not-a-store.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ClusterStoreError, match="not a cluster store"):
        open_lazy(path)
    path.write_text("{broken json")
    with pytest.raises(ClusterStoreError, match="not valid JSON"):
        open_lazy(path)
    with pytest.raises(ClusterStoreError, match="cannot read"):
        open_lazy(tmp_path / "missing.json")


def test_load_rejects_mismatched_case_set(deriv_setup, tmp_path):
    _problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json")
    other = get_problem("oddTuples")
    with pytest.raises(ClusterStoreError, match="different test-case set"):
        BatchRepairEngine.from_store(path, Clara(cases=other.cases))
    # Opened without cases, the store is read anyway (inspection-style use).
    inspector = Clara(cases=other.cases)
    source = open_lazy(path)
    assert inspector.attach_lazy_clusters(source) == clara.cluster_count


def test_load_rejects_mismatched_language(deriv_setup, tmp_path):
    problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json")
    with pytest.raises(ClusterStoreError, match="language|programs"):
        Clara(cases=problem.cases, language="c").attach_lazy_clusters(
            open_lazy(path, cases=problem.cases)
        )


# -- failure diagnostics (original indices) -------------------------------------------


def test_add_correct_sources_reports_original_indices(deriv_cases, paper_sources, monkeypatch):
    """Failure indices must point into the caller's source list even when
    earlier sources were skipped for parse reasons."""
    from repro.engine.cache import RepairCaches

    crashing = paper_sources["C2"]
    real_traces = RepairCaches.traces

    def exploding(self, program, cases):
        if program.source == crashing:
            raise RuntimeError("boom")
        return real_traces(self, program, cases)

    monkeypatch.setattr(RepairCaches, "traces", exploding)
    clara = Clara(deriv_cases)
    sources = [
        "def computeDeriv(poly:",  # index 0: does not parse, silently skipped
        paper_sources["C1"],  # index 1: clusters fine
        crashing,  # index 2: fails at execution time
    ]
    result = clara.add_correct_sources(sources, verify=False)
    assert clara.cluster_count == 1
    assert len(result.failures) == 1
    index, reason = result.failures[0]
    assert index == 2  # original position, not position 1 in the filtered list
    assert "boom" in reason
    assert clara.clustering_failures == result.failures


# -- CLI ------------------------------------------------------------------------------


def test_cli_cluster_build_info_batch_round_trip(tmp_path, capsys):
    store = tmp_path / "clusters.json"
    assert (
        cli_main(
            [
                "cluster",
                "build",
                "--problem",
                "derivatives",
                "--correct",
                "8",
                "--output",
                str(store),
            ]
        )
        == 0
    )
    assert store.exists()

    assert cli_main(["cluster", "info", str(store)]) == 0
    info = capsys.readouterr().out
    assert "format version: 3" in info
    assert "derivatives" in info
    assert "segments:" in info

    attempts = tmp_path / "attempts"
    attempts.mkdir()
    (attempts / "a0.py").write_text(
        "def computeDeriv(poly):\n"
        "    new = []\n"
        "    for i in range(1, len(poly)):\n"
        "        new.append(float(i*poly[i]))\n"
        "    if new == []:\n"
        "        return 0.0\n"
        "    return new\n"
    )
    report = tmp_path / "report.jsonl"
    assert (
        cli_main(
            [
                "batch",
                "--problem",
                "derivatives",
                "--attempts",
                str(attempts),
                "--clusters",
                str(store),
                "--workers",
                "1",
                "--output",
                str(report),
            ]
        )
        == 0
    )
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert lines[0]["status"] == "repaired"


def test_cli_cluster_info_rejects_bad_store(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    assert cli_main(["cluster", "info", str(bad)]) == 2
    assert "not a cluster store" in capsys.readouterr().err


def test_cli_batch_rejects_bad_store(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    attempts = tmp_path / "a.py"
    attempts.write_text("def computeDeriv(poly):\n    return poly\n")
    assert (
        cli_main(
            [
                "batch",
                "--problem",
                "derivatives",
                "--attempts",
                str(attempts),
                "--clusters",
                str(bad),
            ]
        )
        == 2
    )
    assert "not a cluster store" in capsys.readouterr().err


# -- pool indexes (repair fast path) --------------------------------------------------


def test_store_round_trips_pool_indexes(deriv_setup, tmp_path):
    """A loaded store must serve the *persisted* pool indexes — equal to
    freshly built ones — without recomputing them."""
    problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json", problem=problem.name)
    stored = open_lazy(path, cases=problem.cases)
    by_id = {cluster.cluster_id: cluster for cluster in stored.all_clusters()}
    checked = 0
    for original in clara.clusters:
        loaded = by_id[original.cluster_id]
        for (loc_id, var), pool in original.expressions.items():
            fresh = original.pool_index_for(loc_id, var)
            decoded = loaded.pool_index_for(loc_id, var)
            assert decoded == fresh
            assert len(decoded) == len(pool)
            for index, entry in zip(decoded, pool):
                assert index.size == entry.expr.size()
                assert index.variables == tuple(sorted(entry.expr.variables()))
            checked += len(pool)
    assert checked > 0


def test_store_rejects_mismatched_pool_index_length(deriv_setup, tmp_path):
    problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json")
    seg_path = sorted(segment_dir(path).glob("seg-*.json"))[0]
    document = json.loads(seg_path.read_text())
    entry = document["clusters"][0]["expressions"][0]
    entry[3] = entry[3][:-1] + [entry[3][-1], entry[3][-1]]  # one index too many
    text = json.dumps(document)
    seg_path.write_text(text)
    # Keep the header's byte-length freshness check satisfied so the loader
    # reaches the decode (the corruption under test), not the staleness error.
    header = json.loads(path.read_text())
    for item in header["segments"]:
        if item["segment"] == seg_path.name:
            item["bytes"] = len(text.encode("utf-8"))
    path.write_text(json.dumps(header))
    with pytest.raises(ClusterStoreError, match="pool index length"):
        open_lazy(path, cases=problem.cases).all_clusters()


def test_load_rejects_version_1_stores(deriv_setup, tmp_path):
    """Stores from before the pool-index format (version 1) are rejected with
    a clear rebuild instruction rather than silently recomputed."""
    problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json")
    # Derive a v1 document from the v2 interchange export: same single-file
    # shape, minus the pool indexes version 2 added.
    v1 = tmp_path / "v1.json"
    export_clusters(path, v1)
    document = json.loads(v1.read_text())
    document["format_version"] = 1
    for cluster in document["clusters"]:
        cluster["expressions"] = [entry[:3] for entry in cluster["expressions"]]
    v1.write_text(json.dumps(document))
    with pytest.raises(ClusterStoreError, match="format version 1"):
        open_lazy(v1, cases=problem.cases)
    with pytest.raises(ClusterStoreError, match="rebuild the store"):
        BatchRepairEngine.from_store(v1, Clara(cases=problem.cases))


# -- retrieval vectors in the header: coverage reporting and degrade ------------------


def _strip_retrieval(path, *, keep_all_but_one=False):
    """Rewrite a store header without retrieval payloads (simulating a store
    built before the prefilter existed), or with one vector removed."""
    header = json.loads(path.read_text())
    if keep_all_but_one:
        for entry in header["segments"]:
            vectors = (entry.get("retrieval") or {}).get("vectors") or {}
            if vectors:
                vectors.pop(sorted(vectors)[0])
                break
    else:
        for entry in header["segments"]:
            entry.pop("retrieval", None)
    path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


def test_cli_cluster_info_reports_retrieval_coverage(deriv_setup, tmp_path, capsys):
    problem, _corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json", problem=problem.name)

    assert cli_main(["cluster", "info", str(path)]) == 0
    info = capsys.readouterr().out
    assert f"retrieval:      vectors for all {clara.cluster_count} clusters" in info
    assert "vectors=yes" in info and "vectors=no" not in info

    partial = tmp_path / "partial.json"
    clara.save_clusters(partial, problem=problem.name)
    _strip_retrieval(partial, keep_all_but_one=True)
    assert cli_main(["cluster", "info", str(partial)]) == 0
    info = capsys.readouterr().out
    assert (
        f"vectors for {clara.cluster_count - 1}/{clara.cluster_count} clusters" in info
    )
    assert "prefilter falls back where absent" in info

    _strip_retrieval(path)
    assert cli_main(["cluster", "info", str(path)]) == 0
    info = capsys.readouterr().out
    assert "retrieval:      no vectors (store predates retrieval" in info
    assert "vectors=no" in info and "vectors=yes" not in info


def test_pre_retrieval_store_serves_identically_with_fallback_counted(
    deriv_setup, tmp_path
):
    """A v3 header without retrieval payloads (built before this feature)
    must keep repairing exactly as an eager load does — the prefilter just
    turns itself off per lookup and counts ``fallbacks``."""
    problem, corpus, clara = deriv_setup
    path = clara.save_clusters(tmp_path / "clusters.json", problem=problem.name)
    _strip_retrieval(path)

    baseline = BatchRepairEngine(clara, workers=1).run(corpus.incorrect_sources)

    fresh = Clara(cases=problem.cases)
    degraded = BatchRepairEngine.from_store(path, fresh, workers=1).run(
        corpus.incorrect_sources
    )
    assert [_outcome_key(r) for r in degraded.records] == [
        _outcome_key(r) for r in baseline.records
    ]
    counters = fresh.caches.retrieval.as_dict()
    assert counters["fallbacks"] > 0
    assert counters["candidates_ranked"] == 0
    assert counters["matches_attempted"] == 0
