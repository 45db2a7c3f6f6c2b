"""The exhaustive reference for the best-first cluster search.

:func:`repro.core.repair.find_best_repair` promises the lexicographic
minimum of ``(cost, canonical rank)`` over the clusters it is given.
:func:`repair_each_cluster_alone` computes that minimum the slow way: every
structurally matched cluster is repaired on its own by
:func:`repro.core.repair.repair_against_cluster`, with no cost bound, no
fixed-site pre-pass and no stop, and the first strictly cheapest repair in
canonical order wins.
"""

from __future__ import annotations

from repro.core.repair import repair_against_cluster


def repair_each_cluster_alone(implementation, clusters, *, caches=None):
    """The cheapest repair over ``clusters``, ties to the first in canonical
    order, with every matched cluster repaired alone and unbounded.

    ``caches`` (a :class:`repro.engine.cache.RepairCaches`, fresh when
    omitted) is shared by every cluster's structural match and repair.
    """
    if caches is None:
        from repro.engine import RepairCaches

        caches = RepairCaches()
    best = None
    # Canonical order: decreasing size, then ascending cluster_id.
    for cluster in sorted(clusters, key=lambda c: (-c.size, c.cluster_id)):
        location_map = caches.structural_match(implementation, cluster.representative)
        if location_map is None:
            continue
        repair = repair_against_cluster(
            implementation, cluster, location_map=location_map, caches=caches
        )
        if repair is not None and (best is None or repair.cost < best.cost):
            best = repair
    return best
