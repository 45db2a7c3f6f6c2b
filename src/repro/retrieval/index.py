"""Top-k nearest-neighbour ordering of candidate clusters, plus counters.

:func:`ranked_candidates` orders the candidates of the repair-time
structural gate (:meth:`repro.core.pipeline.Clara.repair_program`).  It
never *drops* a candidate: the ``k`` nearest come first (by squared-L2
distance, ties broken by position so the ordering is total and
deterministic), and every remaining candidate follows in its original
order as the exact-fallback tail, so the permutation only decides how many
structural matches run before the hit.  Clustering does not rank
(:func:`repro.core.clustering.place_program` tries clusters in creation
order).

:class:`RetrievalStats` carries the deterministic counters surfaced by
``batch --profile``, the service ``stats`` op and the committed
``results/retrieval_throughput.json`` gate.  Per-worker counters cross a
process boundary as :meth:`RetrievalStats.as_dict` payloads and merge by
:func:`repro.core.profile.sum_counters`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

__all__ = ["DEFAULT_TOP_K", "RetrievalStats", "ranked_candidates", "squared_distance"]

T = TypeVar("T")

#: Default size of the nearest-first head.  Large enough that the exact
#: fallback tail is essentially never consulted on MOOC-shaped corpora
#: (duplicate-heavy, a handful of genuinely distinct solutions per shape),
#: small enough that the gate stays O(k) when a pool holds hundreds of
#: clusters.
DEFAULT_TOP_K = 8


def squared_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Squared L2 distance between two integer vectors.

    Exact integer arithmetic — no floats — so comparisons (and therefore
    rankings) are identical across platforms and hash seeds.  Vectors of
    unequal length compare over the shared prefix with the excess counted
    against (a foreign-version vector never silently ranks equal).
    """
    shared = min(len(a), len(b))
    total = 0
    for index in range(shared):
        delta = a[index] - b[index]
        total += delta * delta
    for tail in (a[shared:], b[shared:]):
        for value in tail:
            total += value * value
    return total


def ranked_candidates(
    query: Sequence[int],
    candidates: Sequence[T],
    vector_of: Callable[[T], Sequence[int]],
    *,
    top_k: int,
) -> list[T]:
    """Order ``candidates`` nearest-first, keeping every one of them.

    The ``top_k`` nearest to ``query`` lead (distance ascending, original
    position as the deterministic tie-break); the rest follow in their
    original order — the exact-fallback tail that makes a first-match-wins
    scan over the result provably reach the same candidate as a scan over
    ``candidates`` itself.  ``top_k <= 0`` disables reordering entirely.
    Thread safety: pure function.
    """
    if top_k <= 0 or len(candidates) <= 1:
        return list(candidates)
    scored = sorted(
        range(len(candidates)),
        key=lambda index: (squared_distance(query, vector_of(candidates[index])), index),
    )
    head = scored[:top_k]
    chosen = set(head)
    return [candidates[index] for index in head] + [
        candidate
        for index, candidate in enumerate(candidates)
        if index not in chosen
    ]


@dataclass
class RetrievalStats:
    """Deterministic counters for the nearest-cluster prefilter.

    Attributes:
        candidates_ranked: Candidate clusters ordered by the prefilter
            before the repair-time structural gate.
        matches_attempted: Structural-match probes the gate actually made
            over prefiltered candidates (the quantity the top-k ordering
            shrinks from O(pool) towards O(1)).
        matches_skipped: Prefiltered candidates the gate never had to
            probe — cut by the CFG-skeleton test or short-circuited once a
            nearer candidate matched.
        fallbacks: Repairs where the prefilter could not rank (store header
            carries no usable vectors) or where the match sat beyond the
            top-k head and the exact-fallback tail found it.

    All counters are per-process totals guarded by an internal lock, so
    one instance is safe to share across batch worker threads; for a fixed
    sequence of repairs the values are independent of thread scheduling
    (each attempt contributes a fixed amount).
    """

    candidates_ranked: int = 0
    matches_attempted: int = 0
    matches_skipped: int = 0
    fallbacks: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(
        self,
        *,
        ranked: int = 0,
        attempted: int = 0,
        skipped: int = 0,
        fallbacks: int = 0,
    ) -> None:
        """Accumulate one repair's worth of counters atomically."""
        with self._lock:
            self.candidates_ranked += ranked
            self.matches_attempted += attempted
            self.matches_skipped += skipped
            self.fallbacks += fallbacks

    def as_dict(self) -> dict[str, int]:
        """Flat dict of the counters, for JSON reports."""
        with self._lock:
            return {
                "candidates_ranked": self.candidates_ranked,
                "matches_attempted": self.matches_attempted,
                "matches_skipped": self.matches_skipped,
                "fallbacks": self.fallbacks,
            }
