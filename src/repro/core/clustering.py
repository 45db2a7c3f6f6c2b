"""Clustering of correct student solutions (paper §4, Def. 4.7).

Clusters are the equivalence classes of the matching relation ``∼_I``.  The
clusterer processes correct programs one by one; on a match the program
joins the cluster and its expressions (translated into the representative's
variables via the matching witness) are added to the cluster's expression
pools ``E_C(ℓ, v)``, which the repair algorithm later draws from.

Scaling (``repro.clusterstore``): instead of attempting the full dynamic
matching of Fig. 4 against *every* existing representative — O(n × clusters)
expensive matches — clusters are bucketed by a cheap matching-invariant
fingerprint (control-flow skeleton + variable-arity + output-trace
signature, see :mod:`repro.clusterstore.fingerprint`).  Two programs in
different buckets can never match, so each program only runs full matches
against the representatives of its own bucket, in creation order.  The
final clustering is *identical* to the exhaustive one: the first match wins
in both, and cluster ids are handed out in order of first members.
:func:`place_program` is the one placement rule; the cluster store's
incremental updates use it too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..interpreter.compile import CompileCache
from ..interpreter.evaluator import evaluate
from ..model.expr import Expr, intern_expr
from ..model.program import Program
from ..model.trace import Trace
from ..ted import AnnotatedTree
from .inputs import InputCase, program_traces
from .matching import MatchResult, find_matching

if TYPE_CHECKING:  # pragma: no cover - engine imports core; annotation only
    from ..engine.cache import RepairCaches

__all__ = [
    "ClusterExpression",
    "PoolEntryIndex",
    "Cluster",
    "ClusteringResult",
    "ClusteringStats",
    "cluster_programs",
    "new_cluster",
    "place_program",
]


@dataclass(frozen=True)
class ClusterExpression:
    """An expression contributed to a pool, with provenance.

    Attributes:
        expr: The expression, already translated to range over the
            representative's variables.
        member_index: Index (within the cluster's ``members`` list) of the
            solution the expression came from.
    """

    expr: Expr
    member_index: int


@dataclass(frozen=True)
class PoolEntryIndex:
    """Precomputed per-pool-expression data consumed by the repair fast path.

    Everything candidate generation needs about a pool expression *besides*
    the expression itself: its size, the variables it mentions (drives the
    partial-relation enumeration), a stable shape digest (persisted by the
    cluster store for integrity/debugging), and its Zhang–Shasha annotation
    — from which the annotation of any variable *renaming* of the
    expression is derived in O(n) (:meth:`AnnotatedTree.rename_vars`),
    because renaming never changes tree shape.
    """

    shape_key: str
    size: int
    variables: tuple[str, ...]
    annotation: AnnotatedTree

    @classmethod
    def from_expr(cls, expr: Expr) -> "PoolEntryIndex":
        interned = intern_expr(expr)
        annotation = AnnotatedTree.from_expr(interned)
        digest = hashlib.sha256(
            repr(interned.structural_key()).encode()
        ).hexdigest()
        return cls(
            shape_key=digest,
            size=len(annotation),
            variables=tuple(sorted(interned.variables())),
            annotation=annotation,
        )


@dataclass
class Cluster:
    """One equivalence class of ``∼_I`` with its representative and pools."""

    cluster_id: int
    representative: Program
    representative_traces: list[Trace]
    members: list[Program] = field(default_factory=list)
    #: ``(loc_id, var) -> list of distinct expressions`` over representative
    #: variables (the paper's ``E_C(ℓ, v)``).
    expressions: dict[tuple[int, str], list[ClusterExpression]] = field(
        default_factory=dict
    )
    #: Hex digest of the members' shared fingerprint
    #: (:class:`repro.clusterstore.fingerprint.Fingerprint`), populated when
    #: clustering runs with pruning enabled and persisted by the cluster
    #: store.  :func:`place_program` skips a cluster whose digest differs
    #: from the program's.
    fingerprint_digest: str | None = None
    #: Runtime caches (never serialized, excluded from comparisons).  Lazily
    #: built, idempotent and derived purely from immutable inputs, so racing
    #: rebuilds by batch workers are benign duplicate work.
    _pool_indexes: dict[tuple[int, str], list[PoolEntryIndex]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _pre_state_cache: dict[int, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    _ref_value_cache: dict[tuple[int, str], tuple] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.members)

    def expressions_for(self, loc_id: int, var: str) -> list[ClusterExpression]:
        return self.expressions.get((loc_id, var), [])

    def distinct_expression_count(self, loc_id: int, var: str) -> int:
        return len(self.expressions_for(loc_id, var))

    def add_member(self, program: Program, witness: MatchResult) -> None:
        """Add a member and merge its expressions into the pools.

        ``witness`` maps the member's variables/locations to the
        representative's.  Translated expressions are interned so identical
        expressions contributed by different members share one object (and
        one cached hash/annotation).
        """
        member_index = len(self.members)
        self.members.append(program)
        rename = dict(witness.variable_map)
        for member_loc, member_location in program.locations.items():
            rep_loc = witness.location_map[member_loc]
            for var, expr in member_location.updates.items():
                rep_var = rename.get(var, var)
                translated = intern_expr(expr.rename_vars(rename))
                key = (rep_loc, rep_var)
                pool = self.expressions.setdefault(key, [])
                if all(existing.expr != translated for existing in pool):
                    pool.append(ClusterExpression(translated, member_index))

    # -- fast-path indexes (see docs/ARCHITECTURE.md "Repair fast path") -------

    def pool_index_for(self, loc_id: int, var: str) -> list[PoolEntryIndex]:
        """Per-entry index of the pool at ``(loc_id, var)``, built lazily.

        Parallel to :meth:`expressions_for`.  A stale cache (the pool grew
        via :meth:`add_member`, or was filtered by the representative-only
        ablation) is detected by length — pool lists are append-or-replace,
        never mutated in place — and rebuilt.
        """
        key = (loc_id, var)
        pool = self.expressions.get(key, [])
        index = self._pool_indexes.get(key)
        if index is None or len(index) != len(pool):
            index = [PoolEntryIndex.from_expr(entry.expr) for entry in pool]
            self._pool_indexes[key] = index
        return index

    def build_pool_indexes(self) -> dict[tuple[int, str], list[PoolEntryIndex]]:
        """Materialize indexes for every pool (cluster-build/persist time)."""
        return {key: self.pool_index_for(*key) for key in self.expressions}

    def seed_pool_index(
        self, loc_id: int, var: str, index: list[PoolEntryIndex]
    ) -> None:
        """Install a precomputed pool index (used by the cluster-store loader)."""
        self._pool_indexes[(loc_id, var)] = index

    def reset_runtime_caches(self) -> None:
        """Drop lazily built indexes and value caches (pools changed)."""
        self._pool_indexes.clear()
        self._pre_state_cache.clear()
        self._ref_value_cache.clear()

    def reference_pre_states(self, loc_id: int) -> tuple:
        """Pre-states of every representative-trace visit to ``loc_id``.

        Visits come from each trace's per-location step index
        (:meth:`repro.model.trace.Trace.steps_at`) instead of a full scan.
        """
        states = self._pre_state_cache.get(loc_id)
        if states is None:
            states = tuple(
                step.pre
                for trace in self.representative_traces
                for step in trace.steps_at(loc_id)
            )
            self._pre_state_cache[loc_id] = states
        return states

    def reference_values(
        self, loc_id: int, var: str, *, compile_cache: CompileCache | None = None
    ) -> tuple:
        """Representative expression values at each visit to ``loc_id``.

        ``evaluate(representative.update_for(loc_id, var), pre)`` for every
        pre-state of :meth:`reference_pre_states` — hoisted out of the
        per-candidate matching loop of Def. 4.5, where it used to be
        recomputed identically for every candidate at a site.  With a
        ``compile_cache`` the expression is compiled once and the closure
        applied per pre-state; the values are identical either way (the two
        evaluators are semantics-equivalent by construction and by test),
        so the memoized tuple is shared between callers regardless of which
        path filled it.
        """
        key = (loc_id, var)
        values = self._ref_value_cache.get(key)
        if values is None:
            expr = self.representative.update_for(loc_id, var)
            if compile_cache is not None:
                fn = compile_cache.fn(expr)
                values = tuple(
                    fn(pre) for pre in self.reference_pre_states(loc_id)
                )
            else:
                values = tuple(
                    evaluate(expr, pre) for pre in self.reference_pre_states(loc_id)
                )
            self._ref_value_cache[key] = values
        return values

    def pool_signature(self) -> dict[tuple[int, str], list[tuple[str, int]]]:
        """Comparable view of the pools: rendered expression + provenance.

        Two clusters with equal signatures draw from identical expression
        pools; tests and benchmarks use this (via
        :meth:`ClusteringResult.signature`) to assert that pruned, incremental
        and persisted clusterings are *identical* to the exhaustive one.
        """
        return {
            key: [(str(entry.expr), entry.member_index) for entry in pool]
            for key, pool in self.expressions.items()
        }


@dataclass
class ClusteringStats:
    """Deterministic counters describing one clustering run.

    ``full_matches`` counts invocations of the full dynamic-matching
    procedure (Fig. 4) — the expensive step pruning exists to avoid.
    Comparing the counter between a pruned and an exhaustive run of the same
    corpus measures the saving (``benchmarks/test_clustering_scale.py``).
    """

    programs: int = 0
    clusters: int = 0
    full_matches: int = 0
    #: Number of distinct fingerprint buckets (1 when pruning is off).
    buckets: int = 0
    #: Bucket sizes in descending order.
    bucket_sizes: list[int] = field(default_factory=list)


@dataclass
class ClusteringResult:
    """Clusters plus per-program failure diagnostics."""

    clusters: list[Cluster]
    #: Programs that could not be clustered (index, reason).  Indices refer
    #: to the iterable passed to :func:`cluster_programs`; callers that
    #: filter their inputs first (``Clara.add_correct_sources``) translate
    #: them back to positions in the caller-supplied list.
    failures: list[tuple[int, str]] = field(default_factory=list)
    stats: ClusteringStats = field(default_factory=ClusteringStats)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def total_members(self) -> int:
        return sum(cluster.size for cluster in self.clusters)

    def sorted_by_size(self) -> list[Cluster]:
        return sorted(self.clusters, key=lambda c: (-c.size, c.cluster_id))

    def signature(self) -> list[tuple[int, int, dict]]:
        """Order-sensitive comparable view of the whole clustering."""
        return [
            (cluster.cluster_id, cluster.size, cluster.pool_signature())
            for cluster in self.clusters
        ]


def _canonical_order(program: Program) -> tuple[int, ...] | None:
    """Canonical location order, or ``None`` when not fully reachable."""
    order, _skeleton = program.cfg_skeleton()
    return order if len(order) == len(program.locations) else None


def place_program(
    program: Program,
    traces: Sequence[Trace],
    candidates: Iterable[Cluster],
    cases: Sequence[InputCase],
    digest: str | None,
) -> tuple[Cluster | None, int]:
    """Add ``program`` to the first candidate cluster it matches (Def. 4.7).

    ``candidates`` are tried in creation order and the first match wins.
    ``∼_I`` is an equivalence relation, so at most one cluster can accept
    the program.  ``digest`` is the program's fingerprint digest (``None``
    = unknown).  A cluster whose digest is known and differs is skipped
    without a match, because fingerprints are matching-invariant.  When
    the digests are equal the two programs share a CFG skeleton, so the
    Def. 4.1 witness is the correspondence of their canonical location
    orders; it is handed to :func:`find_matching`, which then skips the
    lockstep structural walk.

    Returns ``(cluster, full_matches)``: the cluster the program joined
    (``None`` if it matched none) and the number of :func:`find_matching`
    calls made.  This is the one placement rule, shared by
    :func:`cluster_programs` and
    :meth:`repro.clusterstore.store.ClusterStore.add_correct_source`.
    """
    order = _canonical_order(program) if digest is not None else None
    full_matches = 0
    for cluster in candidates:
        if digest is not None and cluster.fingerprint_digest not in (None, digest):
            continue
        location_map = None
        if order is not None and cluster.fingerprint_digest == digest:
            rep_order = _canonical_order(cluster.representative)
            if rep_order is not None:
                location_map = dict(zip(order, rep_order))
        full_matches += 1
        witness = find_matching(
            program,
            cluster.representative,
            cases,
            query_traces=traces,
            base_traces=cluster.representative_traces,
            location_map=location_map,
        )
        if witness is not None:
            cluster.add_member(program, witness)
            return cluster, full_matches
    return None, full_matches


def new_cluster(
    cluster_id: int,
    program: Program,
    traces: Sequence[Trace],
    digest: str | None,
) -> Cluster:
    """A one-member cluster with ``program`` as its representative."""
    cluster = Cluster(
        cluster_id=cluster_id,
        representative=program,
        representative_traces=list(traces),
        fingerprint_digest=digest,
    )
    identity = MatchResult(
        variable_map={v: v for v in program.variables},
        location_map={lid: lid for lid in program.location_ids()},
    )
    cluster.add_member(program, identity)
    return cluster


def cluster_programs(
    programs: Iterable[Program],
    cases: Sequence[InputCase],
    *,
    prune: bool = True,
    caches: "RepairCaches | None" = None,
    clusters: Sequence[Cluster] = (),
) -> ClusteringResult:
    """Cluster correct programs by dynamic equivalence.

    Programs are processed in order; each joins the first cluster of its
    fingerprint bucket it matches (:func:`place_program`) or becomes the
    representative of a new cluster, whose id is the number of clusters
    so far.  Cluster ids therefore follow the order of first members.
    Programs whose execution fails outright are reported in ``failures``
    instead of silently dropped.

    Args:
        programs: Correct programs, already parsed.
        cases: Test inputs defining the matching relation ``∼_I``.
        prune: Bucket clusters by matching-invariant fingerprint and only
            attempt full matches within a program's own bucket.  The result
            is identical to the exhaustive ``prune=False`` path, which
            tries every cluster and exists as the reference for tests and
            benchmarks.
        caches: Optional :class:`repro.engine.cache.RepairCaches` through
            which program executions are routed, so a solution that also
            appears elsewhere in a batch is traced once.
        clusters: An existing clustering (ids ``0..n-1``, in creation
            order) to extend.  The clusters are updated in place and
            returned at the head of the result, so clustering a pool in
            several calls gives the same clusters as one call over the
            concatenation.  With ``prune`` every cluster needs its
            fingerprint digest.
    """
    stats = ClusteringStats()
    failures: list[tuple[int, str]] = []
    placed = list(clusters)
    buckets: dict[str | None, list[Cluster]] = {}
    for cluster in placed:
        if prune and cluster.fingerprint_digest is None:
            raise ValueError("pruned clustering needs fingerprinted clusters")
        buckets.setdefault(cluster.fingerprint_digest if prune else None, []).append(cluster)
    bucket_sizes: dict[str | None, int] = {}
    for index, program in enumerate(programs):
        stats.programs += 1
        try:
            if caches is not None:
                traces = caches.traces(program, cases)
            else:
                traces = program_traces(program, cases)
        except Exception as exc:  # noqa: BLE001 - defensive: report, don't crash
            failures.append((index, f"execution error: {exc}"))
            continue
        digest = None
        if prune:
            from ..clusterstore.fingerprint import program_fingerprint

            if caches is not None:
                digest = caches.fingerprint(program, cases, traces=traces).digest
            else:
                digest = program_fingerprint(program, traces).digest
        bucket_sizes[digest] = bucket_sizes.get(digest, 0) + 1
        bucket = buckets.setdefault(digest, [])
        joined, full_matches = place_program(program, traces, bucket, cases, digest)
        stats.full_matches += full_matches
        if joined is None:
            cluster = new_cluster(len(placed), program, traces, digest)
            bucket.append(cluster)
            placed.append(cluster)

    stats.clusters = len(placed)
    stats.buckets = len(bucket_sizes)
    stats.bucket_sizes = sorted(bucket_sizes.values(), reverse=True)
    return ClusteringResult(clusters=placed, failures=failures, stats=stats)
