"""Deterministic per-program feature vectors for nearest-cluster retrieval.

The vector is a small tuple of non-negative integers derived purely from
the program *model* — fingerprint-style scalars (location count, variable
arity), CFG-skeleton shape counts (back edges, branch points), update-site
statistics, and a fixed-width histogram of Zhang–Shasha annotation labels
over the update expressions.  Two deliberate design constraints:

* **Trace-free.**  Unlike the clustering fingerprint
  (:mod:`repro.clusterstore.fingerprint`), the vector never looks at
  execution traces.  ``cluster import`` migrates stores from decoded,
  traceless clusters and must produce headers byte-identical to a fresh
  build of the same clusters (asserted in ``tests/test_store_segments.py``),
  so every persisted derived quantity has to be a pure function of the
  program model.  Nothing is lost: all clusters in one fingerprint bucket
  share a full trace signature by construction, so a trace-derived
  component would have zero discriminating power exactly where the
  prefilter does its ranking.
* **Hash-seed independent.**  Histogram bucketing uses ``zlib.crc32`` and
  iteration orders are canonical (sorted location ids, sorted variable
  names), so the same program yields byte-identical vectors across
  ``PYTHONHASHSEED`` values and model construction orders (asserted in
  ``tests/test_retrieval_differential.py``).

Distances between vectors are squared-L2 over plain Python integers
(:func:`repro.retrieval.index.squared_distance`) — no floats anywhere, so
rankings cannot drift across platforms.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from ..core.matching import variables_for_matching
from ..model.expr import intern_expr
from ..model.program import Program
from ..ted import AnnotatedTree

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core import cycle
    from ..core.clustering import Cluster

__all__ = [
    "FEATURE_VERSION",
    "HISTOGRAM_BUCKETS",
    "feature_vector",
    "cluster_feature_vector",
    "cluster_skeleton",
    "centroid_payload",
    "retrieval_payload",
    "decode_retrieval_payload",
]

#: Bump whenever the vector composition changes.  Persisted alongside the
#: vectors in the store header; a reader finding a different version treats
#: the store as vectorless (prefilter disabled) instead of ranking by
#: incomparable coordinates.
FEATURE_VERSION = 1

#: Width of the annotation-label histogram tail of the vector.
HISTOGRAM_BUCKETS = 16


def feature_vector(program: Program) -> tuple[int, ...]:
    """The retrieval feature vector of one program.

    Layout (all coordinates non-negative ints):
    ``(locations, back_edges, branches, arity, update_sites, update_nodes,
    hist_0 .. hist_15)`` where ``hist_i`` counts update-expression
    annotation labels whose CRC-32 falls in bucket ``i``.

    Byte stability: canonical iteration orders and CRC-32 bucketing make
    the result independent of hash seeds and of the order updates were
    added to the model.  Thread safety: pure function of an
    immutable-after-parse program.
    """
    _order, skeleton = program.cfg_skeleton()
    shape = skeleton[0]
    back_edges = 0
    branches = 0
    if isinstance(shape, tuple):
        for index, (on_true, on_false) in enumerate(shape):
            if on_true is not None and on_false is not None and on_true != on_false:
                branches += 1
            for succ in (on_true, on_false):
                if succ is not None and succ <= index:
                    back_edges += 1
    update_sites = 0
    update_nodes = 0
    histogram = [0] * HISTOGRAM_BUCKETS
    for loc_id in program.location_ids():
        for _var, expr in sorted(program.locations[loc_id].updates.items()):
            update_sites += 1
            annotation = AnnotatedTree.from_expr(intern_expr(expr))
            update_nodes += len(annotation)
            for label in annotation.labels:
                bucket = zlib.crc32(label.encode("utf-8")) % HISTOGRAM_BUCKETS
                histogram[bucket] += 1
    return (
        len(program.locations),
        back_edges,
        branches,
        len(variables_for_matching(program)),
        update_sites,
        update_nodes,
        *histogram,
    )


def cluster_feature_vector(cluster: "Cluster") -> tuple[int, ...]:
    """The feature vector of a cluster — its representative's vector.

    Memoized on the cluster object (representatives never change once a
    cluster exists, so the memo can never go stale; it lives outside the
    dataclass fields, like the other runtime caches, and is excluded from
    comparisons and serialisation).  Thread safety: racing computations
    store the same value; benign duplicate work, never corruption.
    """
    vector = getattr(cluster, "_retrieval_vector", None)
    if vector is None:
        vector = feature_vector(cluster.representative)
        cluster._retrieval_vector = vector
    return vector


def cluster_skeleton(cluster: "Cluster") -> tuple:
    """The canonical CFG skeleton of a cluster's representative, memoized.

    Skeleton equality is *necessary* for a Def. 4.1 structural match
    (:meth:`repro.model.program.Program.cfg_skeleton`), so the in-memory
    prefilter can drop skeleton-mismatched clusters from the repair
    candidate set without changing any outcome — the same cut the lazy
    store pager applies per segment.  Memoized like
    :func:`cluster_feature_vector`; representatives are immutable.
    """
    skeleton = getattr(cluster, "_retrieval_skeleton", None)
    if skeleton is None:
        skeleton = cluster.representative.cfg_skeleton()[1]
        cluster._retrieval_skeleton = skeleton
    return skeleton


def centroid_payload(vectors: "list[tuple[int, ...]]") -> dict:
    """Segment centroid as an exact integer payload: count + coordinate sums.

    Stored instead of a float mean so the header stays byte-stable; a
    reader compares a query against centroids by cross-multiplying
    (``dist(q, sum/count)`` ordering is preserved under integer
    arithmetic).  Thread safety: pure function.
    """
    if not vectors:
        return {"count": 0, "sum": []}
    total = [0] * len(vectors[0])
    for vector in vectors:
        for index, coordinate in enumerate(vector):
            total[index] += coordinate
    return {"count": len(vectors), "sum": total}


def retrieval_payload(clusters: "list[Cluster]") -> dict:
    """The per-segment retrieval payload embedded in the store header.

    ``{"feature_version", "centroid", "vectors"}`` with one vector per
    cluster keyed by the cluster id **as a string** (JSON object keys), so
    a sorted-keys dump of the header stays byte-stable.  Pure function of
    the clusters' representatives — a migrated (traceless) and a freshly
    built segment produce identical payloads.
    """
    vectors = {
        str(cluster.cluster_id): list(cluster_feature_vector(cluster))
        for cluster in clusters
    }
    return {
        "feature_version": FEATURE_VERSION,
        "centroid": centroid_payload(
            [cluster_feature_vector(cluster) for cluster in clusters]
        ),
        "vectors": vectors,
    }


def decode_retrieval_payload(payload: object) -> dict[int, tuple[int, ...]] | None:
    """Per-cluster vectors from a header payload, or ``None`` when unusable.

    Tolerant by design: headers written before retrieval existed carry no
    payload, and a payload with a different :data:`FEATURE_VERSION` holds
    incomparable coordinates — both decode to ``None``, which readers treat
    as "prefilter unavailable" (they fall back to the exact ladder and
    count a ``fallbacks`` tick) rather than an error.
    """
    if not isinstance(payload, dict):
        return None
    if payload.get("feature_version") != FEATURE_VERSION:
        return None
    vectors = payload.get("vectors")
    if not isinstance(vectors, dict):
        return None
    try:
        return {
            int(cluster_id): tuple(int(value) for value in vector)
            for cluster_id, vector in vectors.items()
        }
    except (TypeError, ValueError):
        return None
