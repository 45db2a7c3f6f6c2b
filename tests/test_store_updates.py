"""Incremental cluster-store updates (``ClusterStore.add_correct_source``).

The contract under test: adding a correct submission to a persisted store
produces a store *field-identical* to rebuilding from scratch with that
submission appended to the original pool — same clusters, pools,
provenance and repair outcomes — while only the revision counter differs.
"""

from __future__ import annotations

import json

import pytest

from repro import Clara
from repro.cli import main as cli_main
from repro.clusterstore import (
    FORMAT_VERSION,
    ClusterStore,
    open_lazy,
    read_store_header,
)
from repro.clusterstore.segments import segment_dir
from repro.datasets import generate_corpus, get_problem

#: A correct strategy deliberately absent from the tiny hand-picked pools
#: below: loop over the *full* index range with the real work behind a
#: branch.  Visits different locations on every input, so it can never
#: match a loop-from-1 cluster.
BRANCHY = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for i in range(len(poly)):\n"
    "        if i > 0:\n"
    "            result.append(float(poly[i]*i))\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)


@pytest.fixture(scope="module")
def spec():
    return get_problem("derivatives")


@pytest.fixture(scope="module")
def corpus(spec):
    return generate_corpus(spec, 10, 4, seed=3)


def _build_store(path, spec, sources, problem="derivatives"):
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(sources)
    clara.save_clusters(path, problem=problem)
    return clara


def _outcome_fields(clara, sources):
    rows = []
    for source in sources:
        outcome = clara.repair_source(source)
        rows.append(
            (
                outcome.status,
                outcome.repair.cost if outcome.repair else None,
                outcome.repair.relative_size() if outcome.repair else None,
                outcome.repair.num_modified_expressions if outcome.repair else None,
                [item.message for item in outcome.feedback.items]
                if outcome.feedback
                else None,
            )
        )
    return rows


def _load_fresh(spec, path):
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.attach_lazy_clusters(open_lazy(path, cases=spec.cases))
    return clara


def _store_state(path):
    """Full on-disk state of a v3 store: header fields + segment bytes."""
    header = json.loads(path.read_text())
    segments = {
        entry.name: entry.read_bytes() for entry in sorted(segment_dir(path).iterdir())
    }
    return header, segments


def test_incremental_add_identical_to_full_rebuild(tmp_path, spec, corpus):
    """Join case: the updated store is byte-identical to a rebuild (modulo
    revision) and repairs every incorrect attempt field-identically."""
    base, extra = corpus.correct_sources[:-1], corpus.correct_sources[-1]
    inc_path, full_path = tmp_path / "inc.json", tmp_path / "full.json"
    _build_store(inc_path, spec, base)

    store = ClusterStore.open_indexed(inc_path, spec.cases)
    outcome = store.add_correct_source(extra)
    assert outcome.accepted
    assert outcome.revision == 1
    store.save()

    _build_store(full_path, spec, list(base) + [extra])

    inc_doc, inc_segments = _store_state(inc_path)
    full_doc, full_segments = _store_state(full_path)
    assert inc_doc.pop("revision") == 1
    assert full_doc.pop("revision") == 0
    assert inc_doc == full_doc
    assert inc_segments == full_segments

    incremental = _load_fresh(spec, inc_path)
    rebuilt = _load_fresh(spec, full_path)
    assert _outcome_fields(incremental, corpus.incorrect_sources) == _outcome_fields(
        rebuilt, corpus.incorrect_sources
    )


def test_incremental_add_mints_new_cluster(tmp_path, spec, paper_sources):
    """Create case: a strategy absent from the pool becomes a new cluster
    with the next id — exactly where a rebuild would put it."""
    base = [paper_sources["C1"], paper_sources["C2"]]
    inc_path, full_path = tmp_path / "inc.json", tmp_path / "full.json"
    built = _build_store(inc_path, spec, base)

    store = ClusterStore.open_indexed(inc_path, spec.cases)
    outcome = store.add_correct_source(BRANCHY)
    assert outcome.status == "created"
    assert outcome.cluster_id == built.cluster_count
    store.save()

    _build_store(full_path, spec, base + [BRANCHY])
    inc_doc, inc_segments = _store_state(inc_path)
    full_doc, full_segments = _store_state(full_path)
    inc_doc.pop("revision"), full_doc.pop("revision")
    assert inc_doc == full_doc
    assert inc_segments == full_segments


def test_rejections_leave_store_and_revision_untouched(tmp_path, spec, corpus):
    inc_path = tmp_path / "store.json"
    _build_store(inc_path, spec, corpus.correct_sources[:4])
    store = ClusterStore.open_indexed(inc_path, spec.cases)
    before = _store_state(inc_path)

    unparseable = store.add_correct_source("def (\n")
    assert unparseable.status == "rejected-parse"
    incorrect = store.add_correct_source(corpus.incorrect_sources[0])
    assert incorrect.status in ("rejected-incorrect", "rejected-execution")
    assert store.revision == 0
    store.save()
    # A save after only rejected adds rewrites the identical header/segments.
    assert _store_state(inc_path) == before


def test_revision_is_monotonic_and_survives_round_trips(tmp_path, spec, corpus):
    inc_path = tmp_path / "store.json"
    _build_store(inc_path, spec, corpus.correct_sources[:6])
    assert read_store_header(inc_path).revision == 0

    store = ClusterStore.open_indexed(inc_path, spec.cases)
    revisions = [
        store.add_correct_source(source).revision
        for source in corpus.correct_sources[6:]
    ]
    assert revisions == sorted(revisions)
    assert store.revision == revisions[-1]
    store.save()

    assert read_store_header(inc_path).revision == store.revision
    # Re-opening resumes the counter rather than resetting it.
    reopened = ClusterStore.open_indexed(inc_path, spec.cases)
    assert reopened.revision == store.revision


def test_cluster_info_reports_revision_and_index_stats(tmp_path, spec, corpus, capsys):
    store_path = tmp_path / "store.json"
    _build_store(store_path, spec, corpus.correct_sources[:6])
    store = ClusterStore.open_indexed(store_path, spec.cases)
    store.add_correct_source(corpus.correct_sources[6])
    store.save()

    assert cli_main(["cluster", "info", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert f"format version: {FORMAT_VERSION}\n" in out
    assert "revision:       1" in out
    assert "segments:" in out
    assert "  seg-" in out
    assert "skeleton=" in out


def test_cluster_info_identifies_stale_store_without_error(tmp_path, capsys):
    """A version-1 store must be identified (version, revision, problem) —
    not bounced through the strict loader's rebuild-hint error path."""
    old = tmp_path / "old.json"
    old.write_text(
        json.dumps(
            {
                "format": "repro-clara-clusterstore",
                "format_version": 1,
                "problem": "derivatives",
                "language": "python",
                "case_signature": "0" * 64,
                "cluster_count": 3,
                "total_members": 7,
                "clusters": [],
            }
        )
        + "\n"
    )
    assert cli_main(["cluster", "info", str(old)]) == 0
    captured = capsys.readouterr()
    assert "format version: 1 (stale" in captured.out
    assert "rebuild" in captured.out
    assert captured.err == ""


def test_cluster_info_rejects_non_store_files(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}\n")
    assert cli_main(["cluster", "info", str(bogus)]) == 2
    assert "not a cluster store" in capsys.readouterr().err
