"""Persistent, index-driven clustering (the "build once, serve many" layer).

The core (:mod:`repro.core.clustering`) computes the equivalence classes of
``∼_I``; this package makes that computation scale and survive process
restarts:

* :mod:`repro.clusterstore.fingerprint` — matching-invariant program
  fingerprints used to prune full-match candidates and to shard the cluster
  build across workers;
* :mod:`repro.clusterstore.serialize` — JSON encoding of expressions,
  programs and clusters (expression pools with provenance included);
* :mod:`repro.clusterstore.segments` — the indexed (format v3) layout's
  lower half: per-fingerprint-bucket segment files and the lazy
  :class:`~repro.clusterstore.segments.SegmentPager` that loads them on
  first matching lookup;
* :mod:`repro.clusterstore.store` — versioned on-disk cluster stores:
  :func:`save_clusters` writes one and :func:`open_lazy` is the one way to
  read one (header-only; segments page in on demand), the incremental
  :class:`ClusterStore` handle (header-only ``open_indexed`` +
  ``add_correct_source`` + revision counter), v2
  interchange (:func:`export_clusters` / :func:`import_clusters`), and the
  ``repro-clara cluster build`` / ``info`` / ``export`` / ``import`` CLI
  surface.

The on-disk format itself is specified in ``docs/STORAGE.md``.

Import layering: ``fingerprint`` sits *below* the core (only model/matching
helpers), because ``core.clustering`` consults it; ``store`` sits *above*
the core (it serializes ``Cluster`` objects).  The store symbols are
exported lazily so importing the fingerprint from the core never drags the
store — and with it the core itself — into a cycle.
"""

from __future__ import annotations

from .fingerprint import Fingerprint, canonical_value, program_fingerprint

__all__ = [
    "Fingerprint",
    "canonical_value",
    "program_fingerprint",
    "AddOutcome",
    "ClusterStore",
    "ClusterStoreError",
    "FORMAT_VERSION",
    "LazyStoredClustering",
    "StoreHeader",
    "V2_FORMAT_VERSION",
    "case_signature",
    "export_clusters",
    "import_clusters",
    "open_lazy",
    "read_store_header",
    "save_clusters",
]

_STORE_EXPORTS = {
    "AddOutcome",
    "ClusterStore",
    "ClusterStoreError",
    "FORMAT_VERSION",
    "LazyStoredClustering",
    "StoreHeader",
    "V2_FORMAT_VERSION",
    "case_signature",
    "export_clusters",
    "import_clusters",
    "open_lazy",
    "read_store_header",
    "save_clusters",
}


def __getattr__(name: str):
    if name in _STORE_EXPORTS:
        from . import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
