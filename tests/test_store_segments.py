"""The indexed (format v3) store: lazy segment paging, v2 interchange
round-trips and staleness detection.

The derivatives corpus generator normalises every solution strategy into
one CFG shape, so these tests add a hand-written *two-loop* correct
solution whose skeleton differs — that second skeleton group is what makes
segment skips observable (repairing an attempt of one shape must never
page the other shape's segments).
"""

from __future__ import annotations

import json

import pytest

from helpers.differential import report_rows

from repro import Clara
from repro.cli import main as cli_main
from repro.clusterstore import (
    ClusterStore,
    ClusterStoreError,
    export_clusters,
    import_clusters,
    open_lazy,
)
from repro.clusterstore.segments import segment_dir
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchRepairEngine
from repro.service import RepairService

#: A correct strategy with a CFG skeleton the generated pool never takes:
#: two sequential loops (scale everything, then shift off the constant).
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

#: Same two-loop skeleton, wrong scaling — repairable only against the
#: TWO_LOOP cluster's segment.
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

#: An attempt in the generated pool's (single-loop) shape: repairing it
#: must skip the two-loop segment.
FAMILY_ATTEMPT = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for i in range(1, len(poly)):\n"
    "        result.append(float(poly[i]))\n"
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


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, spec, corpus):
    path = tmp_path_factory.mktemp("segments") / "derivatives.json"
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    clara.save_clusters(path, problem="derivatives")
    return path


def _store_state(path):
    header = json.loads(path.read_text())
    segments = {
        entry.name: entry.read_bytes() for entry in sorted(segment_dir(path).iterdir())
    }
    return header, segments


def _fresh(spec):
    return Clara(cases=spec.cases, language=spec.language, entry=spec.entry)


# -- lazy open and paging counters ----------------------------------------------------


def test_open_lazy_reads_only_the_header(store_path):
    source = open_lazy(store_path)
    counters = source.paging_counters()
    assert counters["segments_total"] >= 2
    assert counters["segments_loaded"] == 0
    assert counters["segments_skipped"] == counters["segments_total"]
    assert counters["clusters_loaded"] == 0
    # Header metadata is served without touching a segment.
    assert source.cluster_count == 5
    assert source.total_members() == 11
    assert source.paging_counters()["segments_loaded"] == 0


def test_repairing_one_attempt_pages_only_its_skeleton_segment(spec, store_path):
    clara = _fresh(spec)
    engine = BatchRepairEngine.from_store(store_path, clara, workers=1)
    assert clara.store_paging()["segments_loaded"] == 0

    record = engine.run([TWO_LOOP_BROKEN]).records[0]
    assert record.status == "repaired"
    counters = clara.store_paging()
    # The attempt's CFG skeleton matches exactly one segment; every other
    # segment is provably unmatchable and must stay on disk.
    assert counters["segments_loaded"] == 1
    assert counters["segments_skipped"] == counters["segments_total"] - 1
    assert counters["clusters_loaded"] == 1


def test_family_attempt_skips_the_two_loop_segment(spec, store_path):
    clara = _fresh(spec)
    engine = BatchRepairEngine.from_store(store_path, clara, workers=1)
    record = engine.run([FAMILY_ATTEMPT]).records[0]
    assert record.status == "repaired"
    counters = clara.store_paging()
    assert counters["segments_skipped"] >= 1
    assert counters["segments_loaded"] == counters["segments_total"] - 1


def test_lazy_store_repairs_like_the_in_memory_pipeline(spec, corpus, store_path):
    """Skeleton pruning must not change an outcome: the paged store repairs
    exactly like an in-memory pipeline clustered from the same pool, which
    tries every cluster."""

    def rows(engine):
        return report_rows(engine.run(list(corpus.incorrect_sources) + [TWO_LOOP_BROKEN]))

    lazy = BatchRepairEngine.from_store(store_path, _fresh(spec), workers=1)
    in_memory = _fresh(spec)
    in_memory.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    assert rows(lazy) == rows(BatchRepairEngine(in_memory, workers=1))
    assert in_memory.store_paging() is None  # in-memory pipelines have no pager


def test_lazy_pipeline_refuses_in_memory_cluster_registration(spec, store_path):
    clara = _fresh(spec)
    clara.attach_lazy_clusters(open_lazy(store_path, cases=spec.cases))
    with pytest.raises(ValueError, match="lazily paged store"):
        clara.add_correct_sources([TWO_LOOP])
    with pytest.raises(ValueError, match="no clusters registered"):
        clara.attach_lazy_clusters(open_lazy(store_path, cases=spec.cases))


# -- incremental updates through the indexed open -------------------------------------


def test_open_indexed_join_pages_only_the_joined_bucket(
    tmp_path, spec, corpus, store_path
):
    inc_path = tmp_path / "inc.json"
    full_path = tmp_path / "full.json"
    base = list(corpus.correct_sources) + [TWO_LOOP]
    clara = _fresh(spec)
    clara.add_correct_sources(base)
    clara.save_clusters(inc_path, problem="derivatives")

    store = ClusterStore.open_indexed(inc_path, spec.cases)
    assert store.paging_counters()["segments_loaded"] == 0
    # Joining an existing cluster needs that fingerprint's bucket only.
    outcome = store.add_correct_source(corpus.correct_sources[0])
    assert outcome.status == "joined"
    assert store.paging_counters()["segments_loaded"] == 1
    store.save()

    rebuilt = _fresh(spec)
    rebuilt.add_correct_sources(base + [corpus.correct_sources[0]])
    rebuilt.save_clusters(full_path, problem="derivatives")

    inc_doc, inc_segments = _store_state(inc_path)
    full_doc, full_segments = _store_state(full_path)
    assert inc_doc.pop("revision") == 1
    assert full_doc.pop("revision") == 0
    assert inc_doc == full_doc
    assert inc_segments == full_segments


def test_open_indexed_create_matches_full_rebuild(tmp_path, spec, corpus):
    inc_path = tmp_path / "inc.json"
    full_path = tmp_path / "full.json"
    clara = _fresh(spec)
    clara.add_correct_sources(corpus.correct_sources)
    clara.save_clusters(inc_path, problem="derivatives")

    store = ClusterStore.open_indexed(inc_path, spec.cases)
    outcome = store.add_correct_source(TWO_LOOP)
    assert outcome.status == "created"
    store.save()

    rebuilt = _fresh(spec)
    rebuilt.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    rebuilt.save_clusters(full_path, problem="derivatives")

    inc_doc, inc_segments = _store_state(inc_path)
    full_doc, full_segments = _store_state(full_path)
    inc_doc.pop("revision"), full_doc.pop("revision")
    assert inc_doc == full_doc
    assert inc_segments == full_segments


# -- v2 interchange -------------------------------------------------------------------


def test_v2_migration_round_trip_is_byte_identical(tmp_path, store_path):
    first_v2 = tmp_path / "first.json"
    export_clusters(store_path, first_v2)

    migrated = tmp_path / "migrated.json"
    import_clusters(first_v2, migrated)
    assert _store_state(migrated) == _store_state(store_path)

    second_v2 = tmp_path / "second.json"
    export_clusters(migrated, second_v2)
    assert second_v2.read_bytes() == first_v2.read_bytes()


def test_in_place_migration_upgrades_a_v2_file(tmp_path, spec, store_path):
    v2 = tmp_path / "store.json"
    export_clusters(store_path, v2)
    import_clusters(v2, v2)
    stored = open_lazy(v2, cases=spec.cases)
    assert len(stored.all_clusters()) == 5


def test_loading_a_v2_store_names_the_import_migration(tmp_path, spec, store_path):
    v2 = tmp_path / "old.json"
    export_clusters(store_path, v2)
    with pytest.raises(ClusterStoreError, match="cluster import"):
        open_lazy(v2, cases=spec.cases)


def test_import_rejects_a_v3_header(tmp_path, store_path):
    with pytest.raises(ClusterStoreError, match="already a format-3 store"):
        import_clusters(store_path, tmp_path / "out.json")


# -- malformed headers ----------------------------------------------------------------


def _edited_header_copy(tmp_path, store_path, edit):
    """A header copied next to the shared store's segments, edited by ``edit``."""
    import shutil

    own = tmp_path / "store.json"
    shutil.copytree(segment_dir(store_path), segment_dir(own))
    header = json.loads(store_path.read_text())
    edit(header)
    own.write_text(json.dumps(header))
    return own


@pytest.mark.parametrize(
    "field, noun", [("cluster_count", "clusters"), ("total_members", "members")]
)
def test_open_rejects_header_counts_that_disagree_with_the_index(
    tmp_path, spec, store_path, field, noun
):
    declared = json.loads(store_path.read_text())[field] + 3

    def bump(header):
        header[field] = declared

    own = _edited_header_copy(tmp_path, store_path, bump)
    with pytest.raises(
        ClusterStoreError,
        match=rf"header declares {declared} {noun} but the segment index holds {declared - 3}",
    ):
        open_lazy(own, cases=spec.cases)
    with pytest.raises(ClusterStoreError, match="malformed"):
        ClusterStore.open_indexed(own, spec.cases)


def test_non_list_segment_index_is_a_store_error(tmp_path, spec, store_path, capsys):
    def corrupt(header):
        header["segments"] = 5

    own = _edited_header_copy(tmp_path, store_path, corrupt)
    with pytest.raises(ClusterStoreError, match="malformed segment index"):
        open_lazy(own, cases=spec.cases)
    assert cli_main(["cluster", "info", str(own)]) == 2
    assert "malformed segment index" in capsys.readouterr().err


# -- staleness detection --------------------------------------------------------------


def test_rewritten_segment_is_detected_not_mixed(tmp_path, spec, store_path):
    import shutil

    own = tmp_path / "store.json"
    shutil.copy(store_path, own)
    shutil.copytree(segment_dir(store_path), segment_dir(own))

    source = open_lazy(own, cases=spec.cases)
    victim = sorted(segment_dir(own).iterdir())[0]
    victim.write_text(victim.read_text() + "\n")
    with pytest.raises(ClusterStoreError, match="changed on disk"):
        source.all_clusters()


# -- the service view -----------------------------------------------------------------


def test_service_reports_paging_growth(spec, corpus, store_path):
    service = RepairService(workers=1)
    service.add_problem(store_path)
    before = service.stats_snapshot()["problems"]["derivatives"]["store_paging"]
    assert before["segments_loaded"] == 0

    import asyncio

    line = json.dumps(
        {"op": "repair", "problem": "derivatives", "source": TWO_LOOP_BROKEN}
    )
    response = asyncio.run(service.handle_line(line))
    assert response["status"] == "repaired"
    after = service.stats_snapshot()["problems"]["derivatives"]["store_paging"]
    assert after["segments_loaded"] == 1
    assert after["segments_skipped"] == after["segments_total"] - 1
    service.close()
