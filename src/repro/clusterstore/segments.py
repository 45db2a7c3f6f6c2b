"""Segment files and the lazy pager of the indexed (format v3) cluster store.

A format-3 store is split in two on disk: a small **header** file (written
by :mod:`repro.clusterstore.store`) carrying the metadata and a
fingerprint→segment index, and a sibling ``<store>.segments/`` directory of
**segment** files, one per fingerprint bucket, each holding the full
encoding of that bucket's clusters.  This module owns everything below the
header: segment naming, the byte-stable segment document, the index entries
the header embeds, and :class:`SegmentPager` — the lazy read path that
loads a segment from disk only on the first lookup that needs it.

Two digests drive paging, both derived from the matching-invariant
fingerprint (:mod:`repro.clusterstore.fingerprint`):

* the **fingerprint digest** names the segment file and serves exact-bucket
  lookups (``ClusterStore.add_correct_source`` pages in precisely the
  bucket a new submission could join);
* the **skeleton digest** — a hash of the CFG-skeleton component alone —
  serves repair-time lookups: skeleton equality is *necessary* for Def. 4.1
  structural matchability (:meth:`repro.model.program.Program.cfg_skeleton`),
  so repairing an attempt only ever needs the segments whose skeleton
  digest equals the attempt's.  Segments of unfingerprinted clusters
  (stores built with pruning off) carry no skeleton digest and are paged
  unconditionally, which keeps the pruning sound for every store.

Byte stability: :func:`encode_segment_document` writes sorted keys, 2-space
indentation and a trailing newline, so identical cluster content always
produces byte-identical segment files — the property the incremental-update
equivalence guarantee (``tests/test_store_updates.py``) and the committed
``results/`` gates rest on.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ..core.clustering import Cluster
from ..model.program import Program
from .serialize import SerializationError, decode_cluster, encode_cluster

__all__ = [
    "FORMAT_VERSION",
    "SEGMENT_FORMAT_NAME",
    "UNFINGERPRINTED_SEGMENT",
    "SegmentIndexEntry",
    "SegmentPager",
    "segment_dir",
    "segment_name",
    "skeleton_digest",
    "encode_segment_document",
    "decode_segment_document",
    "index_entry_for",
    "group_clusters",
]

#: Bump whenever the on-disk layout or its semantics change.
#: Version history: 1 — initial monolithic layout; 2 — pool entries carry
#: precomputed repair-fast-path indexes; 3 — indexed segment layout: a
#: header file with a fingerprint→segment index plus per-bucket segment
#: files that page in lazily (see docs/STORAGE.md).  Version 2 lives on as
#: the single-file interchange format (``cluster export`` / ``import``).
FORMAT_VERSION = 3

#: Format marker of segment files (distinct from the header marker, so a
#: segment handed to the store loader is rejected with a clear message).
SEGMENT_FORMAT_NAME = "repro-clara-clusterstore-segment"

#: Segment holding clusters without a fingerprint digest (stores built with
#: fingerprint pruning disabled).  It has no skeleton digest either, so
#: every lookup pages it in — the conservative choice that keeps lazy
#: pruning sound for such stores.
UNFINGERPRINTED_SEGMENT = "seg-none.json"


def skeleton_digest(program: Program) -> str:
    """Hex digest of a program's canonical CFG skeleton.

    Two programs are structurally matchable (Def. 4.1) only if their
    skeletons — and hence these digests — are equal, which is what lets the
    repair path page in only skeleton-matching segments without changing
    any outcome.  Byte stability: the digest hashes the ``repr`` of the
    canonical skeleton tuple, which is deterministic across processes and
    platforms.  Thread safety: pure function of an immutable-after-parse
    program; safe from any thread.
    """
    _order, skeleton = program.cfg_skeleton()
    return hashlib.sha256(repr(skeleton).encode()).hexdigest()


def segment_dir(store_path: str | Path) -> Path:
    """The segment directory of a store header at ``store_path``.

    Always ``<store_path>.segments`` alongside the header, so a store is
    moved or copied by taking the header file and this one directory.
    Thread safety: pure path arithmetic.
    """
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".segments")


def segment_name(fingerprint_digest: str | None) -> str:
    """Deterministic segment file name for one fingerprint bucket.

    The full 64-hex-character digest is embedded (no truncation), so
    distinct buckets can never collide on a file name.  ``None`` — clusters
    built without fingerprint pruning — maps to the shared
    :data:`UNFINGERPRINTED_SEGMENT`.  Thread safety: pure function.
    """
    if fingerprint_digest is None:
        return UNFINGERPRINTED_SEGMENT
    return f"seg-{fingerprint_digest}.json"


@dataclass(frozen=True)
class SegmentIndexEntry:
    """One row of the header's segment index (see docs/STORAGE.md).

    Attributes:
        segment: Segment file name inside the store's segment directory.
        fingerprint: Shared fingerprint digest of the segment's clusters
            (``None`` for the unfingerprinted segment).
        skeleton: Shared CFG-skeleton digest (:func:`skeleton_digest`) of
            the segment's representatives; ``None`` means "unknown, always
            page in".
        clusters: Number of clusters in the segment.
        members: Total member programs across those clusters.
        bytes: Exact byte length of the segment file.  Doubles as a
            freshness check: a segment whose on-disk size disagrees with
            the header it was opened under was rewritten after the open,
            and the pager refuses it deterministically instead of mixing
            store generations.
        max_cluster_id: Largest cluster id in the segment (``-1`` when
            empty); the incremental updater mints new ids from the maximum
            over all entries without paging anything in.
        retrieval: Additive nearest-cluster retrieval payload
            (:func:`repro.retrieval.features.retrieval_payload`): the
            segment's integer feature-vector centroid plus one vector per
            cluster, keyed by cluster id.  ``None`` on headers written
            before retrieval existed — readers then disable the prefilter
            for the affected lookups instead of erroring, so old stores
            keep serving unchanged (format version stays 3).
    """

    segment: str
    fingerprint: str | None
    skeleton: str | None
    clusters: int
    members: int
    bytes: int
    max_cluster_id: int
    retrieval: dict | None = None

    def to_json(self) -> dict:
        """Plain-dict form embedded in the store header (byte-stable via
        the header's sorted-keys dump).  Thread safety: read-only."""
        return {
            "segment": self.segment,
            "fingerprint": self.fingerprint,
            "skeleton": self.skeleton,
            "clusters": self.clusters,
            "members": self.members,
            "bytes": self.bytes,
            "max_cluster_id": self.max_cluster_id,
            "retrieval": self.retrieval,
        }

    @classmethod
    def from_json(cls, data: object) -> "SegmentIndexEntry":
        """Strict inverse of :meth:`to_json`.

        ``retrieval`` is the one lenient field: absent (pre-retrieval
        headers) decodes as ``None`` rather than raising, so stores built
        before the prefilter existed stay loadable.

        Raises:
            SerializationError: Missing or mistyped fields.
        """
        if not isinstance(data, dict):
            raise SerializationError(f"malformed segment index entry: {data!r}")
        try:
            retrieval = data.get("retrieval")
            return cls(
                segment=str(data["segment"]),
                fingerprint=data["fingerprint"],
                skeleton=data["skeleton"],
                clusters=int(data["clusters"]),
                members=int(data["members"]),
                bytes=int(data["bytes"]),
                max_cluster_id=int(data["max_cluster_id"]),
                retrieval=retrieval if isinstance(retrieval, dict) else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed segment index entry: {exc}"
            ) from exc


def encode_segment_document(
    fingerprint: str | None, clusters: Sequence[Cluster]
) -> str:
    """Render one segment file's full text.

    Byte stability: sorted keys, 2-space indent, trailing newline — the
    same clusters always yield byte-identical text, so an incremental
    segment rewrite converges with a from-scratch store build.  Thread
    safety: pure function of its arguments (building pool indexes mutates
    per-cluster caches idempotently; racing encoders do duplicate work,
    never corruption).
    """
    document = {
        "format": SEGMENT_FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "clusters": [encode_cluster(cluster) for cluster in clusters],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def decode_segment_document(
    text: str, *, path: Path, expected_fingerprint: str | None
) -> list[Cluster]:
    """Parse and validate one segment file's text into clusters.

    Validates the segment format marker, the format version and that the
    segment's recorded fingerprint matches the header index entry it was
    looked up under (``expected_fingerprint``) — a mismatch means the file
    was swapped or hand-edited.  Decoded clusters have empty
    ``representative_traces`` (the store never persists traces); callers
    re-execute representatives on their own case set.

    Raises:
        SerializationError: Invalid JSON, wrong marker/version, fingerprint
            mismatch, or a malformed cluster payload.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"segment {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != SEGMENT_FORMAT_NAME:
        raise SerializationError(
            f"{path} is not a cluster-store segment (missing "
            f"'{SEGMENT_FORMAT_NAME}' format marker)"
        )
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"segment {path} has format version {version!r}, expected {FORMAT_VERSION}"
        )
    if document.get("fingerprint") != expected_fingerprint:
        raise SerializationError(
            f"segment {path} records fingerprint {document.get('fingerprint')!r} "
            f"but the store header indexes it under {expected_fingerprint!r}"
        )
    try:
        return [decode_cluster(entry) for entry in document["clusters"]]
    except (KeyError, TypeError, SerializationError) as exc:
        raise SerializationError(f"segment {path} is malformed: {exc}") from exc


def index_entry_for(
    name: str,
    fingerprint: str | None,
    skeleton: str | None,
    clusters: Sequence[Cluster],
    text: str,
) -> SegmentIndexEntry:
    """Build the header index entry describing an encoded segment.

    ``text`` must be exactly what was (or will be) written to disk — its
    UTF-8 length becomes the entry's ``bytes`` freshness check.  The
    retrieval payload is recomputed from the clusters' representatives, a
    pure function of the program model, so migrated, incrementally updated
    and freshly built stores all converge on identical header bytes.
    Thread safety: pure function.
    """
    from ..retrieval import retrieval_payload

    return SegmentIndexEntry(
        segment=name,
        fingerprint=fingerprint,
        skeleton=skeleton,
        clusters=len(clusters),
        members=sum(cluster.size for cluster in clusters),
        bytes=len(text.encode("utf-8")),
        max_cluster_id=max((cluster.cluster_id for cluster in clusters), default=-1),
        retrieval=retrieval_payload(list(clusters)),
    )


def group_clusters(
    clusters: Sequence[Cluster],
) -> list[tuple[str, str | None, str | None, list[Cluster]]]:
    """Group clusters into segments: ``(name, fingerprint, skeleton, clusters)``.

    Clusters sharing a fingerprint digest share a segment (and therefore a
    skeleton digest — the fingerprint embeds the skeleton); clusters with
    no digest share :data:`UNFINGERPRINTED_SEGMENT`, whose skeleton is
    recorded as ``None`` (always paged).  Segments are sorted by file name
    and clusters by id within each, so grouping is deterministic: the same
    clustering always yields the same segment layout, byte for byte.
    Thread safety: pure function.
    """
    buckets: dict[str | None, list[Cluster]] = {}
    for cluster in clusters:
        buckets.setdefault(cluster.fingerprint_digest, []).append(cluster)
    groups = []
    for digest, bucket in buckets.items():
        bucket = sorted(bucket, key=lambda cluster: cluster.cluster_id)
        skeleton = (
            skeleton_digest(bucket[0].representative) if digest is not None else None
        )
        groups.append((segment_name(digest), digest, skeleton, bucket))
    groups.sort(key=lambda group: group[0])
    return groups


class SegmentPager:
    """Lazy, cached read path over one open v3 store's segment files.

    Created from a decoded header index; reads **no** segment until a
    lookup needs one, then caches the decoded clusters for the lifetime of
    the pager.  The pager is a snapshot reader: it serves the store
    generation its header described, and detects a segment rewritten by a
    concurrent updater through the index's byte-length check (raising
    :class:`~repro.clusterstore.store.ClusterStoreError`-compatible
    errors via the injected ``error`` class) rather than silently mixing
    generations.

    Thread safety: all public methods are safe to call from concurrent
    repair workers — lookups, page-ins and counter reads run under one
    internal lock, so each segment is read and decoded exactly once and
    the ``on_load`` hook runs exactly once per segment.  The returned
    cluster lists are shared objects treated as read-only by repair;
    only the single-updater :class:`~repro.clusterstore.store.ClusterStore`
    mutates them (it is documented as not thread-safe).

    Attributes:
        on_load: Optional hook called (under the pager lock) with each
            newly decoded cluster list before it is cached; the pipeline
            uses it to execute representatives on its case set so every
            cluster a lookup returns is repair-ready.
    """

    def __init__(
        self,
        store_path: str | Path,
        entries: Sequence[SegmentIndexEntry],
        *,
        error: type[Exception] = SerializationError,
        on_load: "Callable[[list[Cluster]], None] | None" = None,
    ) -> None:
        self.store_path = Path(store_path)
        self.directory = segment_dir(self.store_path)
        self._entries: list[SegmentIndexEntry] = sorted(
            entries, key=lambda entry: entry.segment
        )
        self._by_name: dict[str, SegmentIndexEntry] = {
            entry.segment: entry for entry in self._entries
        }
        self._loaded: dict[str, list[Cluster]] = {}
        self._lock = threading.Lock()
        self._error = error
        self.on_load = on_load

    # -- index views (no disk access) ------------------------------------------

    @property
    def entries(self) -> list[SegmentIndexEntry]:
        """The index entries, sorted by segment name (a fresh list)."""
        with self._lock:
            return list(self._entries)

    def entry(self, name: str) -> SegmentIndexEntry | None:
        """The index entry for ``name``, or ``None``."""
        with self._lock:
            return self._by_name.get(name)

    def counters(self) -> dict:
        """Deterministic loaded/skipped paging counters.

        The loaded set depends only on which lookups were made — not on
        thread scheduling — so these counters are stable enough to commit
        (``results/store_paging.json``) and assert on in tests.  Thread
        safety: a consistent snapshot taken under the pager lock.
        """
        with self._lock:
            loaded = len(self._loaded)
            clusters_loaded = sum(len(found) for found in self._loaded.values())
            return {
                "segments_total": len(self._entries),
                "segments_loaded": loaded,
                "segments_skipped": len(self._entries) - loaded,
                "clusters_total": sum(entry.clusters for entry in self._entries),
                "clusters_loaded": clusters_loaded,
            }

    # -- lookups (page in on demand) -------------------------------------------

    def clusters_for_fingerprint(self, digest: str | None) -> list[Cluster]:
        """Clusters that could share ``digest``'s fingerprint bucket.

        Pages in at most two segments: the bucket named by the digest and
        the unfingerprinted segment (whose clusters were stored without a
        digest and must always be tried).  Returned in cluster-id order —
        the order a full scan of the store meets its matching clusters.
        """
        names = []
        if digest is not None:
            names.append(segment_name(digest))
        names.append(UNFINGERPRINTED_SEGMENT)
        return self._collect(names)

    def clusters_for_skeleton(self, digest: str) -> list[Cluster]:
        """Clusters whose representatives could structurally match ``digest``.

        Pages in every segment whose skeleton digest equals ``digest`` plus
        all segments with no skeleton digest; every cluster in any other
        segment has a provably different CFG skeleton and cannot match
        (Def. 4.1), so skipping it cannot change a repair outcome.
        Returned in cluster-id order.
        """
        with self._lock:
            names = [
                entry.segment
                for entry in self._entries
                if entry.skeleton is None or entry.skeleton == digest
            ]
        return self._collect(names)

    def all_clusters(self) -> list[Cluster]:
        """Page in every segment; clusters in cluster-id order."""
        with self._lock:
            names = [entry.segment for entry in self._entries]
        return self._collect(names)

    def loaded_clusters(self, name: str) -> list[Cluster] | None:
        """The cached cluster list of an already-paged segment (no I/O).

        Returns the live (mutable) list — the incremental updater appends
        to it — or ``None`` when the segment was never paged in.
        """
        with self._lock:
            return self._loaded.get(name)

    def adopt_cluster(self, cluster: Cluster) -> str:
        """Attach a newly minted cluster to its bucket's in-memory segment.

        Used by the single-updater incremental path after a ``created``
        outcome: registers a fresh index entry when the bucket has no
        segment yet (with placeholder sizes — the updater's save recomputes
        them from content) and appends the cluster to the segment's cached
        list.  Returns the segment name, which the caller marks dirty.
        Thread safety: lock-guarded, but intended for one updater process
        (see ``ClusterStore``).
        """
        name = segment_name(cluster.fingerprint_digest)
        with self._lock:
            if name not in self._by_name:
                skeleton = (
                    skeleton_digest(cluster.representative)
                    if cluster.fingerprint_digest is not None
                    else None
                )
                entry = SegmentIndexEntry(
                    segment=name,
                    fingerprint=cluster.fingerprint_digest,
                    skeleton=skeleton,
                    clusters=0,
                    members=0,
                    bytes=0,
                    max_cluster_id=-1,
                    retrieval=None,  # recomputed from content at save time
                )
                self._by_name[name] = entry
                self._entries.append(entry)
                self._entries.sort(key=lambda item: item.segment)
                self._loaded[name] = []
            self._loaded[name].append(cluster)
        return name

    def replace_entry(self, entry: SegmentIndexEntry) -> None:
        """Install a recomputed index entry after a segment rewrite, so the
        pager's index view matches what the saved header now records."""
        with self._lock:
            self._by_name[entry.segment] = entry
            self._entries = sorted(
                (
                    entry if existing.segment == entry.segment else existing
                    for existing in self._entries
                ),
                key=lambda item: item.segment,
            )

    # -- internals ---------------------------------------------------------------

    def _collect(self, names: Sequence[str]) -> list[Cluster]:
        clusters: list[Cluster] = []
        with self._lock:
            for name in names:
                entry = self._by_name.get(name)
                if entry is None:
                    continue
                clusters.extend(self._load_locked(entry))
        return sorted(clusters, key=lambda cluster: cluster.cluster_id)

    def _load_locked(self, entry: SegmentIndexEntry) -> list[Cluster]:
        """Read, verify and decode one segment; caller holds the lock."""
        cached = self._loaded.get(entry.segment)
        if cached is not None:
            return cached
        path = self.directory / entry.segment
        try:
            raw = path.read_text()
        except OSError as exc:
            raise self._error(
                f"cannot read cluster-store segment {path}: {exc}"
            ) from exc
        actual = len(raw.encode("utf-8"))
        if actual != entry.bytes:
            raise self._error(
                f"segment {path} is {actual} bytes but the store header records "
                f"{entry.bytes}; the store changed on disk after it was opened — "
                f"reopen (or hot-reload) the store to pick up the new revision"
            )
        try:
            clusters = decode_segment_document(
                raw, path=path, expected_fingerprint=entry.fingerprint
            )
        except SerializationError as exc:
            raise self._error(str(exc)) from exc
        if self.on_load is not None:
            self.on_load(clusters)
        self._loaded[entry.segment] = clusters
        return clusters
