"""The repair algorithm (paper §5, Fig. 5 and Def. 5.5).

Given an incorrect implementation and a cluster of correct solutions with the
same control flow, the algorithm:

1. generates local repair candidates for every location/variable site
   (:mod:`repro.core.localrepair`);
2. encodes the search for a *consistent* subset of minimum total cost as a
   0-1 ILP -- one indicator per candidate, one per variable pair, plus
   addition/deletion indicators implementing the extension of §5 ("Adding and
   Deleting Variables");
3. decodes the ILP solution into a :class:`Repair`: the list of concrete
   modifications, the repaired program, and provenance information.

The candidates and the ILP are in the attempt's canonical names
(:func:`repro.core.localrepair.canonical_renaming`: matching variables
renamed ``#i`` by position), so attempts that differ only in variable names
build the same ILP.  The decoder reads the solution by position and renames
back only what the chosen candidates put into the repair.

An independent exhaustive solver over total variable relations
(:func:`solve_by_enumeration`) is provided for cross-validation of the ILP
encoding in tests and for the solver ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..ilp import ILP_NODE_LIMIT, IlpProblem, InfeasibleError, solve_fast
from ..model.expr import Expr, Var, intern_expr
from ..model.program import Program
from .clustering import Cluster
from .localrepair import (
    LocalRepairCandidate,
    Site,
    canonical_renaming,
    fixed_site_floor,
    generate_fixed_sites,
    generate_local_repairs,
)
from .matching import FIXED_VARS, structural_match, variables_for_matching
from .profile import profiled

if TYPE_CHECKING:  # pragma: no cover - engine imports core; annotation only
    from ..engine.cache import RepairCaches

__all__ = [
    "ILP_NODE_LIMIT",
    "RepairAction",
    "Repair",
    "repair_against_cluster",
    "find_best_repair",
    "RepairError",
]


class RepairError(Exception):
    """Raised when a repair cannot be constructed for an unexpected reason."""


@dataclass(frozen=True)
class RepairAction:
    """One concrete modification of the implementation.

    ``kind`` is one of ``"modify"`` (replace an expression), ``"add"``
    (introduce an assignment for a fresh variable), ``"delete"`` (remove an
    assignment of a deleted variable) or ``"remove-assignment"`` (drop a
    spurious assignment of a kept variable).
    """

    kind: str
    loc_id: int
    var: str
    old_expr: Expr | None
    new_expr: Expr | None
    cost: int
    rep_var: str | None = None
    line: int | None = None
    location_name: str = ""


@dataclass
class Repair:
    """A whole-program repair against one cluster (Def. 5.2)."""

    cluster_id: int
    cost: float
    actions: list[RepairAction]
    variable_map: dict[str, str]
    added_vars: dict[str, str] = field(default_factory=dict)
    deleted_vars: list[str] = field(default_factory=list)
    repaired_program: Program | None = None
    provenance_members: frozenset[int] = frozenset()
    solve_time: float = 0.0
    original_ast_size: int = 0

    @property
    def num_modified_expressions(self) -> int:
        """Number of expressions touched by the repair (Fig. 7's metric)."""
        return len(self.actions)

    def relative_size(self) -> float:
        """Tree-edit distance of the repair divided by the program AST size.

        Matches the paper's "relative repair size" (Fig. 6); returns ``inf``
        for empty programs.
        """
        if self.original_ast_size == 0:
            return float("inf")
        return self.cost / self.original_ast_size

    def comparable_fields(self) -> dict:
        """Every observable field except wall-clock ``solve_time``.

        Used to assert that two search configurations (e.g. the
        cost-bounded fast path vs the exhaustive path) produced *the same
        repair*, field for field; the repaired program is represented by
        its structure key.
        """
        return {
            "cluster_id": self.cluster_id,
            "cost": self.cost,
            "actions": self.actions,
            "variable_map": self.variable_map,
            "added_vars": self.added_vars,
            "deleted_vars": self.deleted_vars,
            "provenance": self.provenance_members,
            "original_ast_size": self.original_ast_size,
            "repaired": self.repaired_program.structure_key()
            if self.repaired_program is not None
            else None,
        }


# ---------------------------------------------------------------------------
# ILP encoding
# ---------------------------------------------------------------------------


def _pair_var(rep_var: str, impl_var: str) -> str:
    return f"pair::{rep_var}::{impl_var}"


def _add_var(rep_var: str) -> str:
    return f"add::{rep_var}"


def _del_var(impl_var: str) -> str:
    return f"del::{impl_var}"


#: Candidates of each site paired with their ILP variables, site by site.
_Numbered = list[tuple[Site, list[tuple[LocalRepairCandidate, str]]]]


def _number_candidates(
    candidates: Mapping[Site, Sequence[LocalRepairCandidate]],
) -> _Numbered:
    """Name every candidate's ILP variable ``lr::k``, counting through the
    sites in dict order.

    The one numbering of the candidates: the ILP, the enumeration solver
    and the decoder all read it.
    """
    numbered: _Numbered = []
    counter = 0
    for site, site_candidates in candidates.items():
        names = [f"lr::{k}" for k in range(counter, counter + len(site_candidates))]
        numbered.append((site, list(zip(site_candidates, names))))
        counter += len(site_candidates)
    return numbered


def _assigned_size(program: Program, target: str) -> int:
    """Total size of the expressions ``program`` assigns to ``target``: the
    cost of adding (representative) or deleting (implementation) it."""
    total = 0
    for _, var, expr in program.iter_updates():
        if var == target and expr != Var(var):
            total += expr.size()
    return total


def _build_ilp(
    implementation: Program,
    cluster: Cluster,
    candidates: Mapping[Site, Sequence[LocalRepairCandidate]],
) -> tuple[IlpProblem, _Numbered]:
    """The Def. 5.5 ILP over the (canonical) candidates.

    Implementation variables appear under their canonical names
    (``pair::r::#i``, ``del::#i``); a deletion costs what the real variable
    at that position assigns.  Renamed twins therefore build the same
    problem, in order, which is what the solve memo keys on.
    """
    representative = cluster.representative
    canonical = canonical_renaming(implementation)
    impl_vars = list(canonical.values())
    rep_vars = variables_for_matching(representative)

    problem = IlpProblem(minimize=True)

    for rep_var in rep_vars:
        problem.add_variable(_add_var(rep_var), objective=_assigned_size(representative, rep_var))
        for impl_var in impl_vars:
            problem.add_variable(_pair_var(rep_var, impl_var))
    for real_var, impl_var in canonical.items():
        problem.add_variable(_del_var(impl_var), objective=_assigned_size(implementation, real_var))

    # (1) every representative variable is paired with exactly one
    #     implementation variable or freshly added.
    for rep_var in rep_vars:
        members = [_pair_var(rep_var, impl_var) for impl_var in impl_vars]
        members.append(_add_var(rep_var))
        problem.add_exactly_one(members)

    # (2) every implementation variable is paired with exactly one
    #     representative variable or deleted.
    for impl_var in impl_vars:
        members = [_pair_var(rep_var, impl_var) for rep_var in rep_vars]
        members.append(_del_var(impl_var))
        problem.add_exactly_one(members)

    # (3) exactly one local repair per site (or the variable is deleted).
    numbered = _number_candidates(candidates)
    for site, site_numbered in numbered:
        names: list[str] = []
        for candidate, name in site_numbered:
            problem.add_variable(name, objective=float(candidate.cost))
            names.append(name)
            # (4) consistency of the candidate's ω with the pairing.
            for impl_var, rep_var in candidate.omega:
                problem.add_implication(name, _pair_var(rep_var, impl_var))
        if site.fixed:
            if names:
                problem.add_exactly_one(names)
            else:
                # A fixed site with no candidate at all: unrepairable against
                # this cluster (e.g. no matching loop condition exists).
                # repair_against_cluster refutes such a cluster before
                # building; only direct callers see this marker.
                problem.add_constraint([], "==", 1.0)
        else:
            names.append(_del_var(canonical.get(site.var, site.var)))
            problem.add_exactly_one(names)

    return problem, numbered


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _fresh_name(rep_var: str, taken: set[str]) -> str:
    base = rep_var.lstrip("$") or "var"
    name = f"new_{base}"
    suffix = 1
    while name in taken:
        suffix += 1
        name = f"new_{base}_{suffix}"
    taken.add(name)
    return name


def _decode_solution(
    values: Mapping[str, int],
    implementation: Program,
    cluster: Cluster,
    location_map: Mapping[int, int],
    numbered: _Numbered,
    objective: float,
) -> Repair:
    representative = cluster.representative
    canonical = canonical_renaming(implementation)
    rep_vars = variables_for_matching(representative)

    variable_map: dict[str, str] = {var: var for var in FIXED_VARS}
    deleted: list[str] = []
    added: dict[str, str] = {}
    taken_names = set(implementation.variables)

    for impl_var, name in canonical.items():
        if values.get(_del_var(name), 0):
            deleted.append(impl_var)
    for rep_var in rep_vars:
        if values.get(_add_var(rep_var), 0):
            added[rep_var] = _fresh_name(rep_var, taken_names)
        for impl_var, name in canonical.items():
            if values.get(_pair_var(rep_var, name), 0):
                variable_map[impl_var] = rep_var

    # Translation of representative variables into (possibly fresh)
    # implementation variables, used to materialise added assignments.
    rep_to_impl: dict[str, str] = {var: var for var in FIXED_VARS}
    for impl_var, rep_var in variable_map.items():
        if impl_var not in FIXED_VARS:
            rep_to_impl[rep_var] = impl_var
    rep_to_impl.update(added)

    selected: dict[Site, LocalRepairCandidate] = {}
    provenance: set[int] = set()
    for site, site_numbered in numbered:
        for candidate, name in site_numbered:
            if values.get(name, 0):
                selected[site] = candidate
                if candidate.new_expr is not None and candidate.cost > 0:
                    provenance |= set(candidate.provenance)

    actions: list[RepairAction] = []
    repaired = implementation.copy()
    inverse_locations = {rep_loc: impl_loc for impl_loc, rep_loc in location_map.items()}

    # Modifications of kept variables; only these candidates are renamed
    # back from the canonical names.
    real_names = {name: var for var, name in canonical.items()}
    for site, candidate in selected.items():
        if candidate.new_expr is None:
            continue
        old_expr = implementation.update_for(site.loc_id, site.var)
        new_expr = intern_expr(candidate.new_expr.rename_vars(real_names))
        if new_expr == old_expr:
            continue
        location = implementation.locations[site.loc_id]
        if new_expr == Var(site.var):
            kind = "remove-assignment"
            repaired.locations[site.loc_id].updates.pop(site.var, None)
        else:
            kind = "modify"
            repaired.locations[site.loc_id].updates[site.var] = new_expr
        actions.append(
            RepairAction(
                kind=kind,
                loc_id=site.loc_id,
                var=site.var,
                old_expr=None if old_expr == Var(site.var) else old_expr,
                new_expr=None if new_expr == Var(site.var) else new_expr,
                cost=candidate.cost,
                rep_var=candidate.rep_var,
                line=location.line,
                location_name=location.name,
            )
        )

    # Deleted variables: drop their assignments.
    for impl_var in deleted:
        for loc_id in implementation.location_ids():
            old_expr = implementation.update_for(loc_id, impl_var)
            if old_expr == Var(impl_var):
                continue
            location = implementation.locations[loc_id]
            repaired.locations[loc_id].updates.pop(impl_var, None)
            actions.append(
                RepairAction(
                    kind="delete",
                    loc_id=loc_id,
                    var=impl_var,
                    old_expr=old_expr,
                    new_expr=None,
                    cost=old_expr.size(),
                    rep_var=None,
                    line=location.line,
                    location_name=location.name,
                )
            )

    # Added variables: copy the representative's assignments, translated.
    for rep_var, fresh in added.items():
        for rep_loc in representative.location_ids():
            expr = representative.update_for(rep_loc, rep_var)
            if expr == Var(rep_var):
                continue
            impl_loc = inverse_locations[rep_loc]
            translated = expr.rename_vars(rep_to_impl)
            repaired.locations[impl_loc].updates[fresh] = translated
            location = implementation.locations[impl_loc]
            actions.append(
                RepairAction(
                    kind="add",
                    loc_id=impl_loc,
                    var=fresh,
                    old_expr=None,
                    new_expr=translated,
                    cost=expr.size(),
                    rep_var=rep_var,
                    line=location.line,
                    location_name=location.name,
                )
            )

    actions.sort(key=lambda a: (a.loc_id, a.var))
    return Repair(
        cluster_id=cluster.cluster_id,
        cost=objective,
        actions=actions,
        variable_map=variable_map,
        added_vars=added,
        deleted_vars=deleted,
        repaired_program=repaired,
        provenance_members=frozenset(provenance),
        original_ast_size=implementation.ast_size(),
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration solver (cross-check / ablation)
# ---------------------------------------------------------------------------


def solve_by_enumeration(
    implementation: Program,
    cluster: Cluster,
    candidates: Mapping[Site, Sequence[LocalRepairCandidate]],
) -> tuple[dict[str, int], float] | None:
    """Solve the repair selection by enumerating total variable relations.

    Returns an assignment in the same variable naming scheme as the ILP
    encoding, canonical names included (so it can be decoded identically),
    or ``None`` when no consistent repair exists.  Exponential in the number
    of variables; used for cross-checking the ILP on small programs and for
    the solver ablation.
    """
    representative = cluster.representative
    canonical = canonical_renaming(implementation)
    impl_vars = list(canonical.values())
    rep_vars = variables_for_matching(representative)

    add_costs = {v: _assigned_size(representative, v) for v in rep_vars}
    del_costs = {
        name: _assigned_size(implementation, var) for var, name in canonical.items()
    }

    sites = list(candidates)
    best: tuple[float, dict[str, str], dict[Site, LocalRepairCandidate]] | None = None

    def site_choice(
        mapping: dict[str, str], site: Site
    ) -> LocalRepairCandidate | None:
        options = []
        for candidate in candidates[site]:
            if not site.fixed and mapping.get(canonical[site.var]) != candidate.rep_var:
                continue
            consistent = all(
                mapping.get(impl_var) == rep_var for impl_var, rep_var in candidate.omega
            )
            if consistent:
                options.append(candidate)
        if not options:
            return None
        return min(options, key=lambda c: c.cost)

    def evaluate_mapping(mapping: dict[str, str]) -> None:
        nonlocal best
        used_rep = set(mapping.values())
        cost = 0.0
        cost += sum(add_costs[v] for v in rep_vars if v not in used_rep)
        cost += sum(del_costs[v] for v, target in mapping.items() if target == "-")
        chosen: dict[Site, LocalRepairCandidate] = {}
        for site in sites:
            if not site.fixed and mapping.get(canonical[site.var]) == "-":
                continue
            candidate = site_choice(mapping, site)
            if candidate is None:
                return
            cost += candidate.cost
            chosen[site] = candidate
            if best is not None and cost >= best[0]:
                return
        if best is None or cost < best[0]:
            best = (cost, dict(mapping), chosen)

    def assign(index: int, mapping: dict[str, str], used: set[str]) -> None:
        if index == len(impl_vars):
            evaluate_mapping(mapping)
            return
        var = impl_vars[index]
        for rep_var in rep_vars:
            if rep_var in used:
                continue
            mapping[var] = rep_var
            used.add(rep_var)
            assign(index + 1, mapping, used)
            used.remove(rep_var)
        mapping[var] = "-"
        assign(index + 1, mapping, used)
        del mapping[var]

    assign(0, {}, set())
    if best is None:
        return None

    cost, mapping, chosen = best
    values: dict[str, int] = {}
    for impl_var, rep_var in mapping.items():
        if rep_var == "-":
            values[_del_var(impl_var)] = 1
        else:
            values[_pair_var(rep_var, impl_var)] = 1
    used_rep = {v for v in mapping.values() if v != "-"}
    for rep_var in rep_vars:
        if rep_var not in used_rep:
            values[_add_var(rep_var)] = 1
    for site, site_numbered in _number_candidates(candidates):
        for candidate, name in site_numbered:
            if chosen.get(site) is candidate:
                values[name] = 1
    return values, cost


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def repair_against_cluster(
    implementation: Program,
    cluster: Cluster,
    *,
    solver: str = "ilp",
    location_map: Mapping[int, int] | None = None,
    caches: "RepairCaches | None" = None,
    cost_bound: float | None = None,
) -> Repair | None:
    """Repair an implementation against one cluster (Fig. 5).

    Args:
        implementation: The parsed incorrect attempt.
        cluster: Cluster of correct solutions to draw expressions from.
        solver: ``"ilp"`` (default, solved under :data:`ILP_NODE_LIMIT`)
            or ``"enumerate"`` (exhaustive cross-check solver).
        location_map: Pre-computed structural match (Def. 4.1) between
            ``implementation`` and the cluster representative, e.g. from
            :meth:`repro.engine.cache.RepairCaches.structural_match`.  When
            omitted it is computed here.
        caches: The :class:`repro.engine.cache.RepairCaches` handle; it
            provides the TED memo table and the profiler to candidate
            generation, and the ILP solve memo
            (:class:`repro.ilp.SolveCache`) and the profiler to the ILP
            build and solve.  Candidates and the ILP are in the attempt's
            canonical names, so an attempt that differs from an earlier one
            only in variable names hits the site memo, and builds the same
            ILP in the same order, which the solve memo keys on as built;
            only the chosen candidates are renamed back, by the decoder.
            Defaults to a fresh instance.
        cost_bound: Branch-and-bound budget: only repairs cheaper than it
            matter (:func:`find_best_repair` passes the incumbent's cost, or
            one more where a tie would win).  Candidates costing at least
            this much are pruned during generation, and the bound
            warm-starts the ILP solve as its initial incumbent
            (:func:`repro.ilp.solve_fast`); any
            repair *cheaper* than the bound is returned exactly as on the
            unpruned path, while a cluster whose cheapest repair reaches
            the bound may return a different same-or-costlier repair or
            ``None`` — callers that only accept repairs cheaper than the
            bound (:func:`find_best_repair`) are unaffected.  When the fixed
            sites alone refute the cluster
            (:func:`repro.core.localrepair.fixed_site_floor` is ``None``: a
            fixed site without candidates, or fixed-site minimum costs
            summing to at least the bound), :func:`generate_local_repairs`
            returns only those fixed sites and ``None`` is returned here
            without building or solving an ILP — the same ``None`` the
            solve would give.

    Returns:
        The cheapest consistent repair, or ``None`` when the control flow
        does not match or no consistent repair exists.
    """
    start = time.perf_counter()
    if caches is None:
        # Imported lazily: the engine package imports core modules at
        # module level, so the core must not import it back eagerly.
        from ..engine.cache import RepairCaches

        caches = RepairCaches()
    profiler = caches.profiler
    if location_map is None:
        location_map = structural_match(implementation, cluster.representative)
    if location_map is None:
        return None

    with profiled(profiler, "candidate_gen"):
        candidates = generate_local_repairs(
            implementation, cluster, location_map, caches=caches, cost_bound=cost_bound
        )
    if fixed_site_floor(candidates, cost_bound) is None:
        # The fixed sites alone prove that nothing beats the bound (or that
        # no repair exists); the dict holds only them, so nothing is solved.
        return None

    if solver == "enumerate":
        with profiled(profiler, "ilp"):
            solved = solve_by_enumeration(implementation, cluster, candidates)
        if solved is None:
            return None
        values, objective = solved
        numbered = _number_candidates(candidates)
    elif solver == "ilp":
        try:
            with profiled(profiler, "ilp"):
                problem, numbered = _build_ilp(implementation, cluster, candidates)
                solution = solve_fast(
                    problem,
                    node_limit=ILP_NODE_LIMIT,
                    cache=caches.solve,
                    upper_bound=cost_bound,
                )
        except InfeasibleError:
            return None
        if solution is None:
            # Nothing beats the caller's bound: under the cost_bound
            # contract this cluster contributes no candidate repair.
            return None
        if profiler is not None:
            profiler.count("ilp_solves")
            profiler.count("ilp_nodes", solution.nodes_explored)
        values, objective = solution.values, solution.objective
    else:
        raise ValueError(f"unknown solver {solver!r}")

    repair = _decode_solution(
        values, implementation, cluster, location_map, numbered, objective
    )
    repair.solve_time = time.perf_counter() - start
    return repair


def find_best_repair(
    implementation: Program,
    clusters: Sequence[Cluster],
    *,
    solver: str = "ilp",
    timeout: float | None = None,
    caches: "RepairCaches | None" = None,
    cost_bound: bool = True,
) -> Repair | None:
    """Run the repair algorithm against every cluster and keep the cheapest.

    The result is the cheapest repair, ties going to the cluster ranked first
    in *canonical order*: decreasing size, then ascending ``cluster_id``.  It
    does not depend on the order of ``clusters``.

    The search is best-first, in two steps.

    1. *Pre-pass.*  In canonical order, each cluster is structurally matched
       (memoized on ``caches``) and its fixed sites are generated without a
       bound (:func:`repro.core.localrepair.generate_fixed_sites`, timed as
       ``candidate_gen``).  Their floor, the sum of each fixed site's
       cheapest candidate (:func:`repro.core.localrepair.fixed_site_floor`),
       bounds every repair against the cluster from below.  A cluster that
       does not match, or has a fixed site without a candidate, is dropped.
    2. *Search.*  The rest are repaired in ``(floor, canonical rank)`` order.

    With ``cost_bound`` (the default), the incumbent — cost ``c`` from the
    cluster of canonical rank ``r*`` — bounds the rest of the search.  The
    search stops at the first cluster whose floor exceeds ``c``: every later
    floor is at least as high.  A cluster ranked before ``r*`` must still
    win a tie at ``c``, so it is repaired under the bound ``c + 1``; one
    ranked after ``r*`` must be strictly cheaper and gets the bound ``c``;
    a cluster whose floor already reaches its bound is skipped.  Every cost
    is an integer (tree edit distances and expression sizes), so "at most
    ``c``" is exactly "below ``c + 1``", and the one strict bound of
    :func:`repair_against_cluster` serves both cases.  That function
    returns any repair cheaper than its bound exactly as without one, and
    candidates, TED DPs and solver branches that cannot beat the bound are
    pruned (see there).  Any repair that comes back therefore replaces the
    incumbent, and the result is the lexicographic minimum of ``(cost,
    canonical rank)`` — the first strictly cheapest repair in canonical
    order.  ``cost_bound=False`` runs the same loop with no bound and no
    stop, keeping the same minimum; it stays as the exhaustive path for
    cross-checks and measurement (``benchmarks/test_repair_throughput.py``
    asserts field-identical outcomes).

    The argument assumes each solve finds its optimum.  A solve cut at
    :data:`ILP_NODE_LIMIT` returns its best repair so far, and then neither
    this order nor canonical order is guaranteed to return the optimum;
    the bounds of earlier clusters already change what a cut solve
    returns, in any order.

    Args:
        implementation: The parsed incorrect attempt.
        clusters: Candidate clusters of correct solutions.
        solver: Repair-selection solver, ``"ilp"`` or ``"enumerate"``.
        timeout: Wall-clock budget in seconds, checked before each cluster
            of the pre-pass and of the search; both stop once it is
            exceeded.  The clusters that fit are therefore those taken in
            floor order from the ones the pre-pass reached in canonical
            order.
        caches: The :class:`repro.engine.cache.RepairCaches` handle shared
            by every cluster's repair; its structural-match memo means each
            (attempt, cluster) pair is matched exactly once across the
            pipeline's gate check and the search, and its site memo serves
            the fixed sites the pre-pass generated to the search.  Defaults
            to a fresh instance.
        cost_bound: Enable best-cost-so-far pruning (see above).

    Returns:
        The cheapest repair over all clusters, or ``None``.
    """
    if caches is None:
        from ..engine.cache import RepairCaches

        caches = RepairCaches()
    start = time.perf_counter()

    def expired() -> bool:
        return timeout is not None and time.perf_counter() - start > timeout

    ranked: list[tuple[int, int, Cluster, Mapping[int, int]]] = []
    canonical = sorted(clusters, key=lambda c: (-c.size, c.cluster_id))
    for rank, cluster in enumerate(canonical):
        if expired():
            break
        location_map = caches.structural_match(implementation, cluster.representative)
        if location_map is None:
            continue
        with profiled(caches.profiler, "candidate_gen"):
            floor = fixed_site_floor(
                generate_fixed_sites(implementation, cluster, location_map, caches=caches)
            )
        if floor is not None:
            ranked.append((floor, rank, cluster, location_map))
    ranked.sort(key=lambda entry: entry[:2])

    best: Repair | None = None
    best_rank = 0
    for floor, rank, cluster, location_map in ranked:
        if expired():
            break
        bound = None
        if cost_bound and best is not None:
            if floor > best.cost:
                break
            bound = best.cost + 1 if rank < best_rank else best.cost
            if floor >= bound:
                continue
        repair = repair_against_cluster(
            implementation,
            cluster,
            solver=solver,
            location_map=location_map,
            caches=caches,
            cost_bound=bound,
        )
        if repair is not None and (best is None or (repair.cost, rank) < (best.cost, best_rank)):
            best, best_rank = repair, rank
    return best
