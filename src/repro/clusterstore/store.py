"""Versioned on-disk cluster stores ("build once, serve many").

Since format version 3 a cluster store is **two** things on disk (see
``docs/STORAGE.md`` for the full specification):

* a small JSON **header** file at the store path, carrying the format
  version, content revision, source language, the case signature the
  clustering was built against, aggregate counts, and a fingerprint→segment
  **index** (:class:`~repro.clusterstore.segments.SegmentIndexEntry` rows);
* a sibling ``<store>.segments/`` directory with one JSON **segment** file
  per fingerprint bucket, holding the full encodings of that bucket's
  clusters (:mod:`repro.clusterstore.segments`).

Opening a store reads only the header; segments page in lazily on the
first lookup that needs them (:func:`open_lazy`, the one way a store is
read, repaired from or updated), which is what makes a catalog-scale
correct pool cheap to consult — repairing one attempt touches the header
plus the segments whose CFG-skeleton digest matches the attempt, nothing
else.  The old single-file version-2 layout lives on
as the **interchange format**: :func:`export_clusters` renders a v3 store
to the byte-stable v2 JSON document, and :func:`import_clusters` migrates
a v2 document (in place if desired) to v3.

Invalidation rules (checked on open, see :func:`open_lazy`):

* ``format_version`` must equal :data:`FORMAT_VERSION` exactly — the format
  carries semantic content (expression encoding, pool order, segment
  layout), so neither older nor newer stores are silently accepted; v2
  stores get a ``cluster import`` migration hint, anything else a rebuild
  hint;
* the header's ``cluster_count`` and ``total_members`` must equal the sums
  over its segment index (checked from the header alone, nothing paged);
* the ``case_signature`` — a digest of the canonical case-set key
  (:func:`repro.engine.cache.case_set_key`) — must match the cases the
  opener is about to repair against, because clusters are equivalence
  classes *relative to the input set* (Def. 4.4): the same corpus clustered
  against different cases is a different clustering.  Callers that know
  better (e.g. a superset case set for inspection only) can opt out.

Representative traces are deliberately not stored: each representative is
re-executed on the case set at hand when its segment pages in, which keeps
stores small and doubles as an end-to-end revalidation of the decoded
programs.

Stores carry a monotonically increasing **revision** counter in the header
(absent in stores written before revisions existed, read as 0).  The
revision identifies a *content state* of one store: every successful
:meth:`ClusterStore.add_correct_source` bumps it, and a serving process
(:mod:`repro.service`) reports the revision its answers were computed
against, so operators can tell whether a running daemon has picked up an
updated store.  The revision is metadata, not format — ``format_version``
stays unchanged.

Atomicity is **per file**: every header and segment write goes through a
sibling temporary file and :func:`os.replace`, and a full save writes the
header *last*, so a reader that opened the previous header keeps a
consistent generation — if an updater rewrote a segment under it, the
header index's byte-length check turns the race into a deterministic
"store changed on disk, reopen it" error instead of mixed-generation data.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..core.clustering import Cluster, new_cluster, place_program
from ..core.inputs import InputCase, trace_passes_case
from ..model.program import Program
from .segments import (
    FORMAT_VERSION,
    SegmentIndexEntry,
    SegmentPager,
    encode_segment_document,
    group_clusters,
    index_entry_for,
    segment_dir,
    segment_name,
    skeleton_digest,
)
from .serialize import SerializationError, decode_cluster, encode_cluster

__all__ = [
    "FORMAT_VERSION",
    "V2_FORMAT_VERSION",
    "FORMAT_NAME",
    "ClusterStoreError",
    "StoreHeader",
    "LazyStoredClustering",
    "ClusterStore",
    "AddOutcome",
    "case_signature",
    "read_store_header",
    "save_clusters",
    "open_lazy",
    "encode_v2_document",
    "export_clusters",
    "import_clusters",
]

#: The single-file layout of format version 2, kept as the interchange
#: format: ``cluster export`` writes it, ``cluster import`` reads it, and
#: its byte-stable rendering is what the committed ``results/`` gates of
#: earlier revisions were built on.
V2_FORMAT_VERSION = 2
FORMAT_NAME = "repro-clara-clusterstore"


class ClusterStoreError(ValueError):
    """Raised for unreadable, mis-versioned or mismatched stores."""


def case_signature(cases: Sequence[InputCase]) -> str:
    """Stable digest of an ordered case set.

    Built on the same canonical key the engine caches use, so two case sets
    are interchangeable for a store exactly when they are interchangeable
    for the trace cache.  Byte stability: the digest is a SHA-256 of the
    canonical key's ``repr`` — deterministic across processes and
    platforms.  Thread safety: pure function.
    """
    from ..engine.cache import case_set_key

    return hashlib.sha256(repr(case_set_key(cases)).encode()).hexdigest()


@dataclass(frozen=True)
class StoreHeader:
    """Store metadata read without decoding (or paging in) any cluster.

    Produced by :func:`read_store_header`, which accepts *any* format
    version — this is the "what is this file?" view that ``cluster info``
    shows for stale stores without tripping the strict migration-hint error
    of :func:`open_lazy`.  For current (v3) stores the header also
    carries the decoded segment index; for older versions ``segments`` is
    empty.  Thread safety: frozen dataclass, safe to share.
    """

    path: Path
    format_version: int
    revision: int
    language: str
    entry: str | None
    problem: str | None
    case_signature: str
    cluster_count: int
    total_members: int
    segments: tuple[SegmentIndexEntry, ...] = field(default=())

    @property
    def is_current(self) -> bool:
        """Whether this build's :func:`open_lazy` accepts the format version."""
        return self.format_version == FORMAT_VERSION

    def segment_bytes(self) -> int:
        """Total bytes across all indexed segment files (0 for old formats)."""
        return sum(entry.bytes for entry in self.segments)


class LazyStoredClustering:
    """A header-only view of a v3 store whose clusters page in on demand.

    Produced by :func:`open_lazy`: construction reads nothing beyond the
    already-decoded header, and each lookup pages in only the segments that
    could possibly satisfy it (see :class:`~repro.clusterstore.segments.SegmentPager`).
    Paged-in clusters have empty ``representative_traces`` unless the
    consumer installs a ``pager.on_load`` hook that executes them
    (:meth:`repro.core.pipeline.Clara.attach_lazy_clusters` does).

    Thread safety: header attributes are immutable; lookups and counters
    are lock-guarded by the pager, so concurrent repair workers can share
    one instance.
    """

    def __init__(self, header: StoreHeader, pager: SegmentPager) -> None:
        self.header = header
        self.pager = pager
        self._retrieval_vectors: dict[int, tuple[int, ...]] | None = None

    @property
    def language(self) -> str:
        return self.header.language

    @property
    def entry(self) -> str | None:
        return self.header.entry

    @property
    def problem(self) -> str | None:
        return self.header.problem

    @property
    def case_signature(self) -> str:
        return self.header.case_signature

    @property
    def format_version(self) -> int:
        return self.header.format_version

    @property
    def revision(self) -> int:
        return self.header.revision

    @property
    def cluster_count(self) -> int:
        """Total clusters per the header index — available without paging."""
        return self.header.cluster_count

    def total_members(self) -> int:
        """Total member programs per the header index — no paging."""
        return self.header.total_members

    def clusters_for_program(self, program: Program) -> list[Cluster]:
        """Every stored cluster that could structurally match ``program``.

        Pages in only the segments whose CFG-skeleton digest equals the
        program's (plus unfingerprinted segments, which carry no digest) —
        skeleton equality is necessary for a Def. 4.1 structural match, so
        the skipped segments provably contain no candidate and repair
        outcomes are identical to trying every stored cluster.
        """
        return self.pager.clusters_for_skeleton(skeleton_digest(program))

    def clusters_for_fingerprint(self, digest: str | None) -> list[Cluster]:
        """Clusters in ``digest``'s fingerprint bucket (plus unfingerprinted
        ones) — the exact candidate set an incremental add must try."""
        return self.pager.clusters_for_fingerprint(digest)

    def all_clusters(self) -> list[Cluster]:
        """Page in everything; clusters in cluster-id order."""
        return self.pager.all_clusters()

    def retrieval_vectors(self) -> dict[int, tuple[int, ...]]:
        """Per-cluster retrieval vectors merged from the header index.

        Available without paging in a single segment — the vectors ride in
        each :class:`~repro.clusterstore.segments.SegmentIndexEntry`.
        Segments written before retrieval existed (or with a foreign
        feature version) contribute nothing, so the result may cover only
        part of the store; the repair prefilter checks coverage per
        candidate set and falls back to the unranked exact ladder when a
        candidate has no vector.  Thread safety: the merge is computed
        once from the immutable header and memoized (racing fills agree).
        """
        vectors = self._retrieval_vectors
        if vectors is None:
            from ..retrieval import decode_retrieval_payload

            vectors = {}
            for entry in self.header.segments:
                decoded = decode_retrieval_payload(entry.retrieval)
                if decoded:
                    vectors.update(decoded)
            self._retrieval_vectors = vectors
        return vectors

    def paging_counters(self) -> dict:
        """Deterministic loaded/skipped segment counters (see
        :meth:`~repro.clusterstore.segments.SegmentPager.counters`)."""
        return self.pager.counters()


# -- writing ---------------------------------------------------------------------


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_header(
    path: Path,
    entries: Sequence[SegmentIndexEntry],
    *,
    signature: str,
    language: str,
    entry: str | None,
    problem: str | None,
    revision: int,
) -> None:
    """Atomically write a v3 header describing ``entries``.

    Aggregate counts are derived from the index entries, so the header can
    never disagree with its own index.  Byte stability: sorted keys,
    2-space indent, trailing newline.
    """
    document = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "revision": revision,
        "language": language,
        "entry": entry,
        "problem": problem,
        "case_signature": signature,
        "cluster_count": sum(item.clusters for item in entries),
        "total_members": sum(item.members for item in entries),
        "segments": [item.to_json() for item in entries],
    }
    _replace_file(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def _write_store(
    path: Path,
    clusters: Sequence[Cluster],
    *,
    signature: str,
    language: str,
    entry: str | None,
    problem: str | None,
    revision: int,
) -> Path:
    """Write a complete v3 store: all segments, then the header.

    Segment files for buckets that no longer exist are pruned, so a full
    save leaves exactly the files the new index names.  Each file is
    replaced atomically and the header is written last — a concurrent
    reader holds either the old generation (whose segments the byte-length
    check validates) or the new one, never a mix it cannot detect.

    Byte stability: grouping, per-segment ordering and both encodings are
    deterministic, so identical clusterings produce byte-identical file
    trees regardless of how (or in how many steps) they were built.
    """
    directory = segment_dir(path)
    directory.mkdir(parents=True, exist_ok=True)
    entries: list[SegmentIndexEntry] = []
    for name, fingerprint, skeleton, bucket in group_clusters(clusters):
        text = encode_segment_document(fingerprint, bucket)
        _replace_file(directory / name, text)
        entries.append(index_entry_for(name, fingerprint, skeleton, bucket, text))
    keep = {item.segment for item in entries}
    for stale in directory.glob("seg-*.json"):
        if stale.name not in keep:
            stale.unlink()
    _write_header(
        path,
        entries,
        signature=signature,
        language=language,
        entry=entry,
        problem=problem,
        revision=revision,
    )
    return path


def save_clusters(
    path: str | Path,
    clusters: Sequence[Cluster],
    cases: Sequence[InputCase],
    *,
    language: str = "python",
    entry: str | None = None,
    problem: str | None = None,
) -> Path:
    """Serialize ``clusters`` (built against ``cases``) to a fresh v3 store.

    Writes the header at ``path`` and the segment files under
    ``<path>.segments/``.  Byte stability: every file is written with
    sorted keys and a trailing newline, so identical clusterings produce
    byte-identical stores — header and segments alike.  A fresh build is
    revision 0 (see the module docstring); :meth:`ClusterStore.save`
    writes the bumped counter.
    Thread safety: one writer at a time; each file lands via an atomic
    replace so concurrent readers never see a torn write.
    """
    return _write_store(
        Path(path),
        clusters,
        signature=case_signature(cases),
        language=language,
        entry=entry,
        problem=problem,
        revision=0,
    )


# -- reading ---------------------------------------------------------------------


def _read_document(path: Path) -> dict:
    """Read and JSON-parse a store file, checking only the format marker."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ClusterStoreError(f"cannot read cluster store {path}: {exc}") from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ClusterStoreError(f"cluster store {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise ClusterStoreError(
            f"{path} is not a cluster store (missing '{FORMAT_NAME}' format marker)"
        )
    return document


def _decode_index(path: Path, document: dict) -> tuple[SegmentIndexEntry, ...]:
    """Decode a v3 header's segment index, strictly."""
    items = document.get("segments", [])
    if not isinstance(items, list):
        raise ClusterStoreError(
            f"cluster store {path} has a malformed segment index: expected a "
            f"list of entries, got {type(items).__name__}"
        )
    try:
        return tuple(SegmentIndexEntry.from_json(item) for item in items)
    except SerializationError as exc:
        raise ClusterStoreError(
            f"cluster store {path} has a malformed segment index: {exc}"
        ) from exc


def _require_current(path: Path, version: object) -> None:
    """Reject non-v3 stores with a version-appropriate migration hint."""
    if version == FORMAT_VERSION:
        return
    if version == V2_FORMAT_VERSION:
        raise ClusterStoreError(
            f"cluster store {path} has format version {V2_FORMAT_VERSION} (the "
            f"monolithic single-file layout), but this build reads version "
            f"{FORMAT_VERSION}; migrate it in place with 'repro-clara cluster "
            f"import {path} --output {path}', or rebuild the store with "
            f"'repro-clara cluster build'"
        )
    raise ClusterStoreError(
        f"cluster store {path} has format version {version!r}, but this build "
        f"reads version {FORMAT_VERSION}; rebuild the store with "
        f"'repro-clara cluster build'"
    )


def read_store_header(path: str | Path) -> StoreHeader:
    """Read a store's header metadata without paging in any cluster.

    Unlike :func:`open_lazy` this accepts *any* format version — the
    point is to let operators identify a store (version, revision, problem)
    even when it is too old or too new to serve from.  Only the format
    marker itself is validated, except that a current-version store's
    segment index must decode (a corrupt index on a v3 store is an error,
    not something to gloss over); the aggregate counts are reported as
    written, even when they disagree with the index.  Reads exactly one
    file.  Thread safety: pure function returning a frozen header.

    Raises:
        ClusterStoreError: Unreadable file, invalid JSON, a file that is
            not a cluster store at all, or a v3 header whose segment index
            is malformed.
    """
    path = Path(path)
    document = _read_document(path)
    version = document.get("format_version")
    segments: tuple[SegmentIndexEntry, ...] = ()
    if version == FORMAT_VERSION:
        segments = _decode_index(path, document)
    return StoreHeader(
        path=path,
        format_version=version if isinstance(version, int) else -1,
        revision=document.get("revision", 0) or 0,
        language=document.get("language", "python"),
        entry=document.get("entry"),
        problem=document.get("problem"),
        case_signature=document.get("case_signature", ""),
        cluster_count=document.get("cluster_count", 0) or 0,
        total_members=document.get("total_members", 0) or 0,
        segments=segments,
    )


def open_lazy(
    path: str | Path,
    *,
    cases: Sequence[InputCase] | None = None,
) -> LazyStoredClustering:
    """Open a v3 store **header-only**; clusters page in on first lookup.

    The one way a store is read: repair (``Clara.attach_lazy_clusters``),
    incremental updates (:meth:`ClusterStore.open_indexed`) and export all
    start here.  Reads exactly one file — the header — and validates its
    format version, its aggregate counts against the segment index, and
    (when ``cases`` are given) the case signature.  The returned view's
    lookups load only the segments whose index entry could satisfy them; a
    segment rewritten on disk after this open is detected by the index's
    byte-length check and reported as a deterministic error rather than
    served.  Thread safety: the returned view is safe to share across
    repair workers.

    Args:
        path: Store header written by :func:`save_clusters`.
        cases: When given, the store's case signature must match —
            repairing against a clustering built for different inputs
            silently changes what "equivalent" means, so a mismatch is an
            error, not a warning.  Omit them to read a store without that
            check (the read-only ``cluster export`` command).

    Raises:
        ClusterStoreError: Unreadable file, wrong format name, wrong format
            version (v2 stores get a ``cluster import`` migration hint),
            malformed segment index, header counts that disagree with the
            index, or case-set mismatch.  Segment errors surface lazily at
            first touch.
    """
    path = Path(path)
    header = read_store_header(path)
    _require_current(path, header.format_version)
    for label, declared, indexed in (
        ("clusters", header.cluster_count, sum(item.clusters for item in header.segments)),
        ("members", header.total_members, sum(item.members for item in header.segments)),
    ):
        if declared != indexed:
            raise ClusterStoreError(
                f"cluster store {path} is malformed: header declares {declared} "
                f"{label} but the segment index holds {indexed}"
            )
    if cases is not None and header.case_signature != case_signature(cases):
        raise ClusterStoreError(
            f"cluster store {path} was built against a different test-case set; "
            f"clusters are only valid for the inputs they were clustered on — "
            f"rebuild the store for these cases"
        )
    pager = SegmentPager(path, header.segments, error=ClusterStoreError)
    return LazyStoredClustering(header, pager)


# -- v2 interchange (export / import) --------------------------------------------


def encode_v2_document(
    clusters: Sequence[Cluster],
    *,
    signature: str,
    language: str,
    entry: str | None,
    problem: str | None,
    revision: int,
) -> str:
    """Render clusters as the single-file v2 JSON interchange document.

    This is, byte for byte, the writer of the retired format version 2 —
    sorted keys, 2-space indent, trailing newline — so exporting a store
    that was migrated *from* v2 reproduces its original payload exactly
    (asserted in ``tests/test_store_segments.py``).  Thread safety: pure
    function.
    """
    document = {
        "format": FORMAT_NAME,
        "format_version": V2_FORMAT_VERSION,
        "revision": revision,
        "language": language,
        "entry": entry,
        "problem": problem,
        "case_signature": signature,
        "cluster_count": len(clusters),
        "total_members": sum(cluster.size for cluster in clusters),
        "clusters": [encode_cluster(cluster) for cluster in clusters],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def export_clusters(store_path: str | Path, output_path: str | Path) -> Path:
    """Export a v3 store to a single v2 JSON interchange document.

    The export is lossless and byte-stable: importing the document with
    :func:`import_clusters` and exporting again yields identical bytes, and
    metadata (revision, case signature, language, entry, problem) is copied
    verbatim.  No case set is needed — the stored signature is trusted.
    Thread safety: read-only on the store; the output lands atomically.

    Raises:
        ClusterStoreError: The store is unreadable, stale or malformed.
    """
    stored = open_lazy(store_path)
    text = encode_v2_document(
        stored.all_clusters(),
        signature=stored.case_signature,
        language=stored.language,
        entry=stored.entry,
        problem=stored.problem,
        revision=stored.revision,
    )
    output = Path(output_path)
    _replace_file(output, text)
    return output


def import_clusters(source_path: str | Path, output_path: str | Path) -> Path:
    """Migrate a v2 JSON document (store or export) to an indexed v3 store.

    Metadata — revision, case signature, language, entry, problem — is
    preserved verbatim, so the migrated store serves exactly what the v2
    file did.  ``output_path`` may equal ``source_path`` for an in-place
    migration: segments are written first and the header replaces the v2
    file last, atomically.  Byte stability: importing the same document
    always produces the same file tree, identical to a fresh
    :func:`save_clusters` of the same clusters.

    Raises:
        ClusterStoreError: Not a v2 document (v1 stores lack the
            precomputed pool indexes — rebuild those), or malformed payload.
    """
    source_path = Path(source_path)
    document = _read_document(source_path)
    version = document.get("format_version")
    if version == FORMAT_VERSION:
        raise ClusterStoreError(
            f"{source_path} is already a format-{FORMAT_VERSION} store; "
            f"'cluster import' reads the version-{V2_FORMAT_VERSION} JSON "
            f"documents written by 'repro-clara cluster export'"
        )
    if version != V2_FORMAT_VERSION:
        raise ClusterStoreError(
            f"{source_path} has format version {version!r}; 'cluster import' "
            f"reads version-{V2_FORMAT_VERSION} JSON documents only — older "
            f"stores lack the precomputed pool indexes, rebuild the store "
            f"with 'repro-clara cluster build'"
        )
    try:
        clusters = [decode_cluster(item) for item in document["clusters"]]
    except (KeyError, TypeError, SerializationError) as exc:
        raise ClusterStoreError(
            f"cluster store {source_path} is malformed: {exc}"
        ) from exc
    return _write_store(
        Path(output_path),
        clusters,
        signature=document.get("case_signature", ""),
        language=document.get("language", "python"),
        entry=document.get("entry"),
        problem=document.get("problem"),
        revision=document.get("revision", 0) or 0,
    )


# -- incremental updates --------------------------------------------------------


@dataclass(frozen=True)
class AddOutcome:
    """Result of one :meth:`ClusterStore.add_correct_source` call.

    Attributes:
        status: ``"joined"`` (matched an existing cluster), ``"created"``
            (minted a new cluster), or one of the rejection statuses
            ``"rejected-parse"`` / ``"rejected-execution"`` /
            ``"rejected-incorrect"``.  Rejections leave the store — and its
            revision — untouched.
        cluster_id: The cluster joined or created (``None`` on rejection).
        detail: Human-readable reason for rejections, empty otherwise.
        revision: The store's revision *after* this call.
    """

    status: str
    cluster_id: int | None
    detail: str
    revision: int

    @property
    def accepted(self) -> bool:
        return self.status in ("joined", "created")


class ClusterStore:
    """A mutable handle on one on-disk cluster store (open → update → save).

    Where :func:`save_clusters` writes a store as an immutable snapshot
    built from scratch, a ``ClusterStore`` supports the *incremental*
    deployment flow: as new correct submissions arrive, route each through
    :meth:`add_correct_source` — which places it exactly where a full
    re-clustering would — bump the revision, and :meth:`save` the store
    atomically so a running :class:`repro.service.RepairService` can
    hot-reload it between requests.

    Handles are opened header-only with :meth:`open_indexed`: each
    :meth:`add_correct_source` pages in just the new submission's
    fingerprint bucket (plus the unfingerprinted segment), and :meth:`save`
    rewrites only the segments that changed.  Ingestion cost is therefore
    proportional to the touched bucket, not the store.

    **Equivalence guarantee.**  ``add_correct_source(src)`` produces a store
    byte-identical (modulo revision) to rebuilding from scratch with ``src``
    appended to the original correct pool (asserted in
    ``tests/test_store_updates.py``): the new program is fingerprinted and
    placed by :func:`repro.core.clustering.place_program`, the placement
    rule of :func:`repro.core.clustering.cluster_programs` — tried against
    its bucket's clusters in creation order, first match wins — and
    otherwise minted as a new cluster with the next id.

    Thread safety: instances are **not** thread-safe — they are intended
    for a single updater process (a course ingests new correct submissions
    serially).  Readers are isolated by :meth:`save`'s per-file atomic
    replaces (header written last): a concurrent reader sees either the
    old or the new generation of each file, and the header index's
    byte-length check turns a cross-generation read into a deterministic
    error instead of silent corruption.

    Args:
        source: The header-only view of the store (:func:`open_lazy`); its
            pager becomes this handle's, and its header metadata (path,
            language, entry, problem, revision, case signature, counts)
            seeds the handle.
        cases: The test-case set the clustering is relative to (Def. 4.4);
            must match the store's ``case_signature``.

    Executions and fingerprints are routed through the handle's own
    :class:`repro.engine.cache.RepairCaches`.
    """

    def __init__(self, source: LazyStoredClustering, cases: Sequence[InputCase]) -> None:
        self.path = source.header.path
        self.cases = cases
        self.language = source.language
        self.entry = source.entry
        self.problem = source.problem
        # Imported lazily: the engine package imports this module at module
        # level, so it must not import the engine back eagerly.
        from ..engine.cache import RepairCaches

        self.caches = RepairCaches()
        self._revision = source.revision
        self._signature = source.case_signature
        self._pager = source.pager
        self._cluster_count = source.cluster_count
        self._total_members = source.total_members()
        # The header index records the largest id per segment, so the next
        # id is known without paging anything in.
        self._max_cluster_id = max(
            (item.max_cluster_id for item in self._pager.entries), default=-1
        )
        self._dirty: set[str] = set()
        self._pager.on_load = self._on_page_in

    @classmethod
    def open_indexed(cls, path: str | Path, cases: Sequence[InputCase]) -> "ClusterStore":
        """Open ``path`` **header-only**; segments page in as adds need them.

        Nothing beyond the header is read until :meth:`add_correct_source`
        consults a fingerprint bucket, and :meth:`save` rewrites only dirty
        segments (plus the header).  Representative traces of paged-in
        clusters are rebuilt at page-in time.

        Raises:
            ClusterStoreError: see :func:`open_lazy`.
        """
        return cls(open_lazy(path, cases=cases), cases)

    def _on_page_in(self, clusters: list[Cluster]) -> None:
        """Pager hook: make freshly paged clusters repair-ready."""
        for cluster in clusters:
            cluster.representative_traces = list(self._traces(cluster.representative))

    # ``docs/API.md`` names: exporting/importing is independent of any open
    # handle, so these are module functions surfaced on the class for
    # discoverability ("import" itself is a reserved word).
    export = staticmethod(export_clusters)
    import_v2 = staticmethod(import_clusters)

    def _traces(self, program: Program):
        return self.caches.traces(program, self.cases)

    @property
    def revision(self) -> int:
        """Monotonically increasing content revision (bumped per accepted add)."""
        return self._revision

    @property
    def cluster_count(self) -> int:
        """Total clusters, from the header index (no paging)."""
        return self._cluster_count

    def total_members(self) -> int:
        """Total members, from the header index (no paging)."""
        return self._total_members

    def paging_counters(self) -> dict:
        """Loaded/skipped segment counters of this handle's pager."""
        return self._pager.counters()

    def add_correct_source(self, source: str) -> AddOutcome:
        """Place one new correct submission without re-clustering the pool.

        The source is parsed, executed on the store's cases and verified
        correct; incorrect or unparseable submissions are rejected (MOOC
        dumps routinely contain mislabelled data) and leave the store
        unchanged.  An accepted program joins the first existing cluster it
        matches (:func:`repro.core.clustering.place_program`, the rule the
        batch build uses) — only that bucket's segment and the
        unfingerprinted one are read from disk — or becomes the
        representative of a new cluster, and the revision is bumped.

        Changes live in memory until :meth:`save` is called.  Thread
        safety: single-updater only, like every mutation on this class.

        Returns:
            An :class:`AddOutcome` naming the cluster joined/created (or
            the rejection reason) and the resulting revision.
        """
        from ..frontend import FrontendError, parse_source

        try:
            program = parse_source(source, language=self.language, entry=self.entry)
        except FrontendError as exc:
            return AddOutcome("rejected-parse", None, str(exc), self._revision)
        try:
            traces = list(self._traces(program))
        except Exception as exc:  # noqa: BLE001 - defensive: report, don't crash
            return AddOutcome(
                "rejected-execution", None, f"execution error: {exc}", self._revision
            )
        if not all(
            trace_passes_case(trace, case) for trace, case in zip(traces, self.cases)
        ):
            return AddOutcome(
                "rejected-incorrect",
                None,
                "submission does not pass the store's test cases",
                self._revision,
            )

        fingerprint = self.caches.fingerprint(program, self.cases, traces=traces)
        # Page in exactly the candidate set — the new program's bucket plus
        # clusters stored without a digest — in cluster-id order.
        candidates = self._pager.clusters_for_fingerprint(fingerprint.digest)
        joined, _ = place_program(program, traces, candidates, self.cases, fingerprint.digest)
        if joined is not None:
            self._dirty.add(segment_name(joined.fingerprint_digest))
            status = "joined"
        else:
            joined = new_cluster(self._max_cluster_id + 1, program, traces, fingerprint.digest)
            self._dirty.add(self._pager.adopt_cluster(joined))
            self._max_cluster_id = joined.cluster_id
            self._cluster_count += 1
            status = "created"
        self._total_members += 1
        self._revision += 1
        return AddOutcome(status, joined.cluster_id, "", self._revision)

    def add_correct_sources(self, sources: Iterable[str]) -> list[AddOutcome]:
        """Apply :meth:`add_correct_source` to each source, in order."""
        return [self.add_correct_source(source) for source in sources]

    def save(self) -> Path:
        """Persist the dirty segments and the header, atomically per file.

        Only the segments dirtied since the last save are rewritten, then
        the header; the resulting file tree is byte-identical to a
        from-scratch build of the same clusters (modulo revision).
        Concurrent readers (a serving daemon hot-reloading the problem)
        never observe a torn file, and a reader caught between generations
        fails deterministically via the index byte-length check.
        """
        directory = segment_dir(self.path)
        directory.mkdir(parents=True, exist_ok=True)
        for name in sorted(self._dirty):
            entry = self._pager.entry(name)
            bucket = sorted(
                self._pager.loaded_clusters(name) or [],
                key=lambda cluster: cluster.cluster_id,
            )
            text = encode_segment_document(entry.fingerprint, bucket)
            _replace_file(directory / name, text)
            self._pager.replace_entry(
                index_entry_for(name, entry.fingerprint, entry.skeleton, bucket, text)
            )
        _write_header(
            self.path,
            self._pager.entries,
            signature=self._signature,
            language=self.language,
            entry=self.entry,
            problem=self.problem,
            revision=self._revision,
        )
        self._dirty.clear()
        return self.path
