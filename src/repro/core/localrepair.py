"""Local repair generation (paper §5, Def. 5.1/5.4 and Fig. 5 lines 4-14).

For every location/variable pair of the implementation, a set of *local
repair candidates* is generated:

* ``(ω, •)`` candidates keep the implementation expression unchanged; they
  exist when the expression already matches the corresponding representative
  expression under some partial variable relation ω (cost 0);
* ``(ω, e)`` candidates replace the implementation expression with an
  expression ``e`` drawn from the cluster's expression pool, translated to
  range over implementation variables; their cost is the tree edit distance
  between the old and new expression.

Partial variable relations are enumerated only over the variables occurring
in the expression at hand (plus the assigned variable), which the paper notes
keeps the enumeration feasible.

The fast path (docs/ARCHITECTURE.md, "Repair fast path"):

* the representative expression's value at each trace visit is evaluated
  once per (location, variable) — via :meth:`Cluster.reference_values` —
  instead of once per candidate relation;
* keep candidates enumerate their partial relations over the expression's
  variables in the implementation's :func:`variables_for_matching` order,
  so the candidate lists do not depend on ``PYTHONHASHSEED``;
* pool expressions carry precomputed indexes
  (:class:`repro.core.clustering.PoolEntryIndex`): their variable sets feed
  the relation enumeration, and their tree annotations are *renamed* (an
  O(n) label substitution, shape shared) to seed the TED cache for each
  translated candidate, so the Zhang–Shasha preprocessing never re-walks a
  pool expression;
* edit distances run through the :class:`repro.ted.TedCache` of the
  :class:`repro.engine.cache.RepairCaches` handle (annotation + distance
  memo), with an optional branch-and-bound ``upper_bound``: a
  candidate whose cost reaches the bound cannot be part of a repair
  cheaper than the best already found (costs are non-negative and
  additive), so it is dropped — and the TED DP itself is skipped whenever
  the cheap lower bound already reaches the bound;
* candidates are computed in *canonical names*: the attempt's matching
  variables renamed ``#i`` by position in :func:`variables_for_matching`
  (:func:`canonical_renaming`).  Each site's candidates are memoized on the
  :class:`~repro.engine.cache.RepairCaches` handle
  (:meth:`~repro.engine.cache.RepairCaches.candidate_site`), so attempts
  that write the same expression under other names share the relation
  enumeration, screening and TED work and the very candidate objects, with
  the cost-bound and staleness rules documented there.  Nothing is renamed
  back here: the repair ILP is built on the canonical names, and only the
  chosen candidates are renamed back when the solution is decoded
  (:mod:`repro.core.repair`);
* the fixed-variable sites are generated first (:func:`generate_fixed_sites`);
  their cost floor (:func:`fixed_site_floor`) is what
  :func:`repro.core.repair.find_best_repair` orders and refutes clusters by,
  before it asks for any ordinary site.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from ..interpreter.evaluator import evaluate
from ..interpreter.values import values_equal
from ..model.expr import Expr, Var, intern_expr
from ..model.program import Program
from ..model.trace import Trace
from .clustering import Cluster, PoolEntryIndex
from .matching import FIXED_VARS, variables_for_matching
from .profile import profiled

if TYPE_CHECKING:  # pragma: no cover - engine imports core; annotation only
    from ..engine.cache import RepairCaches

__all__ = [
    "LocalRepairCandidate",
    "canonical_renaming",
    "expressions_match",
    "enumerate_partial_relations",
    "fixed_site_floor",
    "generate_fixed_sites",
    "generate_local_repairs",
    "Site",
]

#: Guard against combinatorial blow-up when an expression mentions unusually
#: many variables (student code in intro courses rarely exceeds 3-4).
MAX_RELATIONS_PER_EXPRESSION = 4096


@dataclass(frozen=True)
class LocalRepairCandidate:
    """One possible local repair for an implementation site.

    Candidates are in the attempt's canonical names
    (:func:`canonical_renaming`) and carry no site of their own: one
    memoized candidate list serves every site, in every attempt, whose
    canonical form is the same.  The :class:`Site` key it is listed under
    names the site in the attempt's own names.

    Attributes:
        rep_var: Related representative variable (the paper's ``v1``).
        omega: Partial variable relation, canonical implementation variable
            → representative variable, restricted to non-fixed variables.
        new_expr: ``None`` to keep the implementation expression (the paper's
            ``•``); otherwise the replacement expression over canonical
            implementation variables.
        cost: Tree edit distance between old and new expression (0 for keep).
        provenance: Indices of cluster members whose expressions produced
            this candidate (empty for keep candidates).
    """

    rep_var: str
    omega: tuple[tuple[str, str], ...]
    new_expr: Expr | None
    cost: int
    provenance: frozenset[int] = frozenset()

    @property
    def keeps_original(self) -> bool:
        return self.new_expr is None


@dataclass(frozen=True)
class Site:
    """An implementation location/variable pair to be repaired (real names)."""

    loc_id: int
    var: str
    fixed: bool  # True when ``var`` is a fixed special variable


def expressions_match(
    candidate: Expr,
    reference: Expr,
    traces: Sequence[Trace],
    loc_id: int,
) -> bool:
    """Expression matching ``candidate ≃_{Γ,ℓ} reference`` (Def. 4.5).

    Both expressions must range over the representative's variables; they are
    evaluated on the pre-state of every visit to ``loc_id`` in the
    representative traces (via the per-location step index,
    :meth:`Trace.steps_at`).
    """
    pre_states = [step.pre for trace in traces for step in trace.steps_at(loc_id)]
    return _matches_reference(
        candidate,
        reference,
        pre_states,
        (evaluate(reference, pre) for pre in pre_states),
    )


def _matches_reference(
    candidate: Expr,
    reference: Expr,
    pre_states: Sequence,
    reference_values: Iterable,
) -> bool:
    """Def. 4.5 against precomputed reference values (the hoisted fast path).

    ``reference_values[i]`` is ``evaluate(reference, pre_states[i])``,
    computed once per (location, variable) by
    :meth:`Cluster.reference_values` instead of once per candidate.
    """
    if candidate == reference:
        return True
    for pre, expected in zip(pre_states, reference_values):
        if not values_equal(evaluate(candidate, pre), expected):
            return False
    return True


def enumerate_partial_relations(
    source_vars: Iterable[str],
    targets: Sequence[str],
    forced: tuple[str, str],
) -> Iterator[dict[str, str]]:
    """Enumerate injective partial relations ``source → target``.

    ``forced`` pins the assigned variable's image (ω(v2) = v1).  Fixed special
    variables always map to themselves and are skipped from enumeration.  At
    most :data:`MAX_RELATIONS_PER_EXPRESSION` relations are produced.
    """
    forced_source, forced_target = forced
    free_sources: list[str] = []
    base: dict[str, str] = {}
    for var in dict.fromkeys(source_vars):
        if var == forced_source:
            continue
        if var in FIXED_VARS:
            base[var] = var
            continue
        free_sources.append(var)
    if forced_source in FIXED_VARS and forced_source != forced_target:
        return
    base[forced_source] = forced_target

    candidate_targets = [
        t for t in targets if t != forced_target and t not in FIXED_VARS
    ]
    if len(free_sources) > len(candidate_targets):
        return

    produced = 0
    for assignment in permutations(candidate_targets, len(free_sources)):
        relation = dict(base)
        relation.update(zip(free_sources, assignment))
        yield relation
        produced += 1
        if produced >= MAX_RELATIONS_PER_EXPRESSION:
            return


def _apply_relation(expr: Expr, relation: Mapping[str, str]) -> Expr:
    return expr.rename_vars(dict(relation))


def _invert(relation: Mapping[str, str]) -> dict[str, str]:
    return {target: source for source, target in relation.items()}


def generate_local_repairs(
    implementation: Program,
    cluster: Cluster,
    location_map: Mapping[int, int],
    *,
    caches: "RepairCaches | None" = None,
    upper_bound: float | None = None,
) -> dict[Site, list[LocalRepairCandidate]]:
    """Generate the candidate sets ``LR(ℓ, v)`` (Fig. 5, lines 4-14).

    Args:
        implementation: The incorrect attempt.
        cluster: Cluster to repair against (provides the representative, its
            traces and the expression pools).
        location_map: Structural matching π, implementation location →
            representative location.
        caches: The :class:`repro.engine.cache.RepairCaches` handle whose
            candidate-site memo serves repeated sites (when enabled), whose
            TED memo costs the replacement candidates and whose profiler
            (if any) times the ``ted`` phase and counts candidates.
            Defaults to a fresh instance.
        upper_bound: Branch-and-bound budget — only repairs cheaper than it
            matter to the caller.  Candidates whose cost reaches it are dropped;
            repairs cheaper than the bound are unaffected (see
            :func:`repro.core.repair.find_best_repair`).

    Returns:
        Each site's candidates, cheapest first and in the attempt's
        canonical names (:func:`canonical_renaming`; the :class:`Site` keys
        keep the real names): the ordinary sites, then the fixed ones
        (:func:`generate_fixed_sites`, generated first).  Every site is
        generated, also when the fixed sites alone rule out a repair cheaper
        than ``upper_bound``; :func:`repro.core.repair.find_best_repair`
        skips such a cluster before asking for its candidates.
    """
    caches = _default_caches(caches)
    fixed = generate_fixed_sites(
        implementation, cluster, location_map, caches=caches, upper_bound=upper_bound
    )

    # Ordinary (non-fixed) variables: every location × variable site.
    rep_vars = variables_for_matching(cluster.representative)
    impl_vars = variables_for_matching(implementation)
    for_site = _site_generator(implementation, cluster, caches, upper_bound)
    candidates: dict[Site, list[LocalRepairCandidate]] = {}
    for loc_id in implementation.location_ids():
        rep_loc = location_map[loc_id]
        for var in impl_vars:
            impl_expr = implementation.update_for(loc_id, var)
            candidates[Site(loc_id, var, fixed=False)] = _dedupe(
                for_site(rep_loc, var, impl_expr, rep_vars)
            )
    candidates.update(fixed)
    _count_candidates(caches, candidates)
    return candidates


def generate_fixed_sites(
    implementation: Program,
    cluster: Cluster,
    location_map: Mapping[int, int],
    *,
    caches: "RepairCaches | None" = None,
    upper_bound: float | None = None,
) -> dict[Site, list[LocalRepairCandidate]]:
    """The candidates of the fixed special variables' sites (``$cond``,
    ``$ret``, ``$out``, ...), cheapest first, location by location.

    They are related identically, but their expressions still have to match
    and may need repair (e.g. a wrong loop condition or a wrong return
    expression).  Each fixed site must take one of its candidates, so they
    alone bound every repair against the cluster from below
    (:func:`fixed_site_floor`).  :func:`generate_local_repairs` starts with
    these sites, and :func:`repro.core.repair.find_best_repair` generates
    them without a bound for every cluster to order its search.  Candidates
    are not counted here: only the ones handed to an ILP are.
    """
    caches = _default_caches(caches)
    representative = cluster.representative
    for_site = _site_generator(implementation, cluster, caches, upper_bound)
    fixed: dict[Site, list[LocalRepairCandidate]] = {}
    fixed_vars = sorted(
        (set(implementation.variables) | set(representative.variables)) & FIXED_VARS
    )
    for loc_id in implementation.location_ids():
        rep_loc = location_map[loc_id]
        for var in fixed_vars:
            impl_expr = implementation.update_for(loc_id, var)
            rep_expr = representative.update_for(rep_loc, var)
            pool = cluster.expressions_for(rep_loc, var)
            if impl_expr == Var(var) and rep_expr == Var(var) and not pool:
                continue
            fixed[Site(loc_id, var, fixed=True)] = _dedupe(
                for_site(rep_loc, var, impl_expr, (var,))
            )
    return fixed


def fixed_site_floor(
    candidates: Mapping[Site, Sequence[LocalRepairCandidate]],
) -> int | None:
    """The sum of each fixed site's cheapest candidate, or ``None`` when a
    fixed site has no candidate.

    A fixed site's ILP group is "exactly one of its candidates", with no
    deletion option, and every cost in the ILP is a non-negative integer,
    so no repair against the cluster costs less than the floor, and none
    exists when it is ``None`` (docs/ARCHITECTURE.md, "Fixed-site
    refutation").  Ordinary sites in ``candidates`` are ignored.
    """
    floor = 0
    for site, site_candidates in candidates.items():
        if not site.fixed:
            continue
        if not site_candidates:
            return None
        floor += min(candidate.cost for candidate in site_candidates)
    return floor


def _default_caches(caches: "RepairCaches | None") -> "RepairCaches":
    if caches is not None:
        return caches
    # Imported lazily: the engine package imports core modules at module
    # level, so the core must not import it back eagerly.
    from ..engine.cache import RepairCaches

    return RepairCaches()


def _site_generator(
    implementation: Program,
    cluster: Cluster,
    caches: "RepairCaches",
    upper_bound: float | None,
) -> Callable[[int, str, Expr, Sequence[str]], list[LocalRepairCandidate]]:
    """``for_site(rep_loc, var, impl_expr, targets)``: one site's candidates,
    with the site's variable and expression taken into canonical names."""
    rep_vars = variables_for_matching(cluster.representative)
    forward = canonical_renaming(implementation)
    canonical_vars = tuple(forward.values())

    def for_site(
        rep_loc: int, var: str, impl_expr: Expr, targets: Sequence[str]
    ) -> list[LocalRepairCandidate]:
        return _site_candidates(
            cluster,
            rep_loc,
            forward.get(var, var),
            intern_expr(impl_expr.rename_vars(forward)),
            targets,
            rep_vars,
            canonical_vars,
            caches=caches,
            upper_bound=upper_bound,
        )

    return for_site


def _count_candidates(
    caches: "RepairCaches", candidates: Mapping[Site, Sequence[LocalRepairCandidate]]
) -> None:
    if caches.profiler is not None:
        # Counter-only: the size of the ILP the solver fast path receives
        # (one indicator variable per surviving candidate, see
        # :func:`repro.core.repair._build_ilp`).  Deterministic per corpus,
        # so it may appear in committed reports.
        caches.profiler.count(
            "candidates_generated",
            sum(len(site_candidates) for site_candidates in candidates.values()),
        )


def canonical_renaming(implementation: Program) -> dict[str, str]:
    """The attempt's canonical names: each matching variable renamed ``#i``.

    ``#i`` is the position of the variable in
    :func:`variables_for_matching`; fixed special variables and names
    outside that list keep their names.  Source identifiers never start with
    ``#``, so the renaming is injective.  Candidates, the site memo and the
    repair ILP all work in these names; the decoder renames the chosen
    candidates back.
    """
    return {
        var: f"#{index}"
        for index, var in enumerate(variables_for_matching(implementation))
    }


def _site_candidates(
    cluster: Cluster,
    rep_loc: int,
    var: str,
    impl_expr: Expr,
    targets: Sequence[str],
    rep_vars: Sequence[str],
    impl_vars: Sequence[str],
    *,
    caches: "RepairCaches",
    upper_bound: float | None,
) -> list[LocalRepairCandidate]:
    """Candidates for one site against each representative variable in ``targets``.

    ``var``, ``impl_expr`` and ``impl_vars`` are in canonical names.  Each
    target's candidates come from the site memo
    (:meth:`RepairCaches.candidate_site`, computed directly when caching is
    disabled).  The candidates are equivariant under the renaming: relation
    enumeration walks ``impl_vars`` and ``rep_vars`` by position, TED
    compares labels only by equality, and Def. 4.5 screening evaluates the
    translated expression, which renaming does not change.
    """
    out: list[LocalRepairCandidate] = []
    for rep_var in targets:
        memoized = caches.candidate_site(
            (id(cluster), rep_loc, rep_var, var, impl_expr, len(impl_vars)),
            cluster,
            len(cluster.expressions_for(rep_loc, rep_var)),
            upper_bound,
            partial(
                _candidates_for_target,
                cluster,
                rep_loc,
                var,
                impl_expr,
                rep_var,
                rep_vars,
                impl_vars,
                caches=caches,
                upper_bound=upper_bound,
            ),
        )
        if upper_bound is None:
            out.extend(memoized)
            continue
        # A memo entry generated under a wider bound (or none) still holds
        # replacements this query's bound prunes; keep candidates (cost 0)
        # always pass, as in generation.
        out.extend(
            candidate
            for candidate in memoized
            if candidate.new_expr is None or candidate.cost < upper_bound
        )
    return out


def _candidates_for_target(
    cluster: Cluster,
    rep_loc: int,
    var: str,
    impl_expr: Expr,
    rep_var: str,
    rep_vars: Sequence[str],
    impl_vars: Sequence[str],
    *,
    caches: "RepairCaches",
    upper_bound: float | None,
) -> list[LocalRepairCandidate]:
    """Candidates for one implementation site against one representative variable.

    ``var``, ``impl_expr`` and ``impl_vars`` are in the names the candidates
    come out in (the canonical ones, in :func:`generate_local_repairs`).
    """
    representative = cluster.representative
    rep_expr = representative.update_for(rep_loc, rep_var)
    pre_states = cluster.reference_pre_states(rep_loc)
    ref_values = cluster.reference_values(rep_loc, rep_var)
    out: list[LocalRepairCandidate] = []

    # Step 1 (Fig. 5, lines 9-11): keep the implementation expression if it
    # matches the representative expression under some partial relation.
    # Relations are enumerated over the mentioned variables in their
    # variables_for_matching order (not set order), so the candidate order
    # is the same under every PYTHONHASHSEED.
    mentioned = impl_expr.variables() | {var}
    sources = [v for v in impl_vars if v in mentioned]
    sources.extend(sorted(mentioned.difference(sources)))
    for relation in enumerate_partial_relations(
        sources, rep_vars, forced=(var, rep_var)
    ):
        translated = _apply_relation(impl_expr, relation)
        if _matches_reference(translated, rep_expr, pre_states, ref_values):
            out.append(
                LocalRepairCandidate(
                    rep_var=rep_var,
                    omega=_omega_items(relation),
                    new_expr=None,
                    cost=0,
                )
            )

    # Step 2 (Fig. 5, lines 12-14): take expressions from the cluster pool.
    pool = cluster.expressions_for(rep_loc, rep_var)
    if not pool and rep_expr == Var(rep_var):
        # The representative never assigns rep_var here: offer the identity
        # expression so that a spurious implementation assignment can be
        # dropped.
        out.extend(
            _identity_candidates(var, rep_var, impl_expr, caches, upper_bound)
        )
    if pool:
        pool_index = cluster.pool_index_for(rep_loc, rep_var)
        for entry, entry_index in zip(pool, pool_index):
            out.extend(
                _pool_candidates(
                    entry.expr,
                    entry_index,
                    entry.member_index,
                    var,
                    impl_expr,
                    rep_var,
                    impl_vars,
                    caches=caches,
                    upper_bound=upper_bound,
                )
            )
    return out


def _pool_candidates(
    expr: Expr,
    entry_index: PoolEntryIndex,
    member_index: int,
    var: str,
    impl_expr: Expr,
    rep_var: str,
    impl_vars: Sequence[str],
    *,
    caches: "RepairCaches",
    upper_bound: float | None,
) -> list[LocalRepairCandidate]:
    """Replacement candidates drawn from one pool expression."""
    ted = caches.ted
    profiler = caches.profiler
    out: list[LocalRepairCandidate] = []
    source_vars: Iterable[str] = entry_index.variables
    if rep_var not in entry_index.variables:
        source_vars = (*entry_index.variables, rep_var)
    for relation in enumerate_partial_relations(
        source_vars, impl_vars, forced=(rep_var, var)
    ):
        replacement = intern_expr(_apply_relation(expr, relation))
        # Derive the translated expression's annotation from the pool index
        # (labels substituted, shape shared) so the TED never has to re-walk
        # it.
        ted.seed_annotation(replacement, entry_index.annotation.rename_vars(relation))
        if profiler is None:  # innermost loop: skip the context-manager cost
            cost = ted.distance(impl_expr, replacement, budget=upper_bound)
        else:
            with profiler.phase("ted"):
                cost = ted.distance(impl_expr, replacement, budget=upper_bound)
        if upper_bound is not None and cost >= upper_bound:
            # A repair using this candidate costs at least ``cost`` —
            # already no better than the best repair found so far.
            continue
        out.append(
            LocalRepairCandidate(
                rep_var=rep_var,
                omega=_omega_items(_invert(relation)),
                new_expr=replacement,
                cost=cost,
                provenance=frozenset({member_index}),
            )
        )
    return out


def _identity_candidates(
    var: str,
    rep_var: str,
    impl_expr: Expr,
    caches: "RepairCaches",
    upper_bound: float | None,
) -> list[LocalRepairCandidate]:
    """Offer "remove this assignment" when the representative has none."""
    identity = Var(var)
    if impl_expr == identity:
        return []
    with profiled(caches.profiler, "ted"):
        cost = caches.ted.distance(impl_expr, identity, budget=upper_bound)
    if upper_bound is not None and cost >= upper_bound:
        return []
    return [
        LocalRepairCandidate(
            rep_var=rep_var,
            omega=((var, rep_var),) if var not in FIXED_VARS else (),
            new_expr=identity,
            cost=cost,
        )
    ]


def _omega_items(relation: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """Normalise a relation to sorted items, dropping fixed self-mappings."""
    items = [
        (source, target)
        for source, target in relation.items()
        if source not in FIXED_VARS
    ]
    return tuple(sorted(items))


def _dedupe(
    candidates: Sequence[LocalRepairCandidate],
) -> list[LocalRepairCandidate]:
    """Remove duplicates, keeping the cheapest candidate per (rep_var, ω, expr)."""
    best: dict[tuple, LocalRepairCandidate] = {}
    for candidate in candidates:
        key = (candidate.rep_var, candidate.omega, candidate.new_expr)
        existing = best.get(key)
        if existing is None or candidate.cost < existing.cost:
            best[key] = candidate
    return sorted(best.values(), key=lambda c: c.cost)
