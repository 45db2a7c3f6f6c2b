"""Approximate nearest-cluster retrieval (`docs/ARCHITECTURE.md`).

A cheap, deterministic feature vector per program lets the repair
pipeline *order* candidate clusters nearest-first and try the Def. 4.1
structural match against the likeliest clusters before the rest.  The exact matcher remains the decision
procedure — the prefilter never drops a candidate the exact ladder would
have accepted — so outcomes are field-identical with the prefilter on or
off; only the number of expensive match attempts changes.
"""

from .features import (
    FEATURE_VERSION,
    HISTOGRAM_BUCKETS,
    centroid_payload,
    cluster_feature_vector,
    cluster_skeleton,
    decode_retrieval_payload,
    feature_vector,
    retrieval_payload,
)
from .index import (
    DEFAULT_TOP_K,
    RetrievalStats,
    ranked_candidates,
    squared_distance,
)

__all__ = [
    "DEFAULT_TOP_K",
    "FEATURE_VERSION",
    "HISTOGRAM_BUCKETS",
    "RetrievalStats",
    "centroid_payload",
    "cluster_feature_vector",
    "cluster_skeleton",
    "decode_retrieval_payload",
    "feature_vector",
    "ranked_candidates",
    "retrieval_payload",
    "squared_distance",
]
