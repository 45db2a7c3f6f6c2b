"""Oracles for the Def. 5.5 repair selection.

* :func:`build_ilp_with_implications`: the repair ILP with one implication
  row per (candidate, ω pair).  :func:`repro.core.repair._build_ilp` states
  ω consistency as one row per variable pair, ``sum(lr_i) - n * pair <= 0``.
  This is the textbook encoding it replaced, ``lr -> pair`` for every
  candidate ``lr`` and every ``(impl, rep)`` in its ω: both encodings must
  drive the solver through the same search.
* :func:`solve_by_enumeration`: the optimum cost of the selection, found
  without an ILP by enumerating total variable relations.

:func:`add_implication` states ``a -> b`` as an ILP row, for these and the
solver tests.
"""

from __future__ import annotations

from repro.core.localrepair import canonical_renaming
from repro.core.matching import variables_for_matching
from repro.core.repair import (
    _add_var,
    _assigned_size,
    _del_var,
    _number_candidates,
    _pair_var,
)
from repro.ilp import IlpProblem


def add_implication(problem: IlpProblem, antecedent: str, consequent: str) -> None:
    """Add ``antecedent -> consequent`` as ``-antecedent + consequent >= 0``."""
    problem.add_constraint([(antecedent, -1.0), (consequent, 1.0)], ">=", 0.0)


def build_ilp_with_implications(implementation, cluster, candidates) -> IlpProblem:
    """The Def. 5.5 ILP of ``_build_ilp``, with per-candidate implications."""
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

    for rep_var in rep_vars:
        problem.add_exactly_one(
            [_pair_var(rep_var, impl_var) for impl_var in impl_vars] + [_add_var(rep_var)]
        )
    for impl_var in impl_vars:
        problem.add_exactly_one(
            [_pair_var(rep_var, impl_var) for rep_var in rep_vars] + [_del_var(impl_var)]
        )

    for site, site_numbered in _number_candidates(candidates):
        names = []
        for candidate, name in site_numbered:
            problem.add_variable(name, objective=float(candidate.cost))
            names.append(name)
            for impl_var, rep_var in candidate.omega:
                add_implication(problem, name, _pair_var(rep_var, impl_var))
        if site.fixed:
            if names:
                problem.add_exactly_one(names)
            else:
                problem.add_constraint([], "==", 1.0)
        else:
            names.append(_del_var(canonical.get(site.var, site.var)))
            problem.add_exactly_one(names)
    return problem


def solve_by_enumeration(implementation, cluster, candidates) -> float | None:
    """The cheapest consistent repair's cost over ``candidates``, or ``None``.

    Enumerates every total relation of the canonical implementation
    variables to the representative's (each paired with an unused
    representative variable, or deleted).  Under one relation each live
    site takes its cheapest candidate whose ω agrees with it; an ordinary
    site of a deleted variable costs nothing, and every unpaired
    representative variable costs its addition.  Exponential in the number
    of variables; the Baseline corpora have at most 6 on either side.
    """
    representative = cluster.representative
    canonical = canonical_renaming(implementation)
    impl_vars = list(canonical.values())
    rep_vars = variables_for_matching(representative)
    add_costs = {v: _assigned_size(representative, v) for v in rep_vars}
    del_costs = {name: _assigned_size(implementation, var) for var, name in canonical.items()}
    best: float | None = None

    def site_cost(mapping, site, site_candidates):
        costs = [
            candidate.cost
            for candidate in site_candidates
            if (site.fixed or mapping[canonical[site.var]] == candidate.rep_var)
            and all(mapping.get(impl) == rep for impl, rep in candidate.omega)
        ]
        return min(costs) if costs else None

    def evaluate(mapping):
        nonlocal best
        used = set(mapping.values())
        cost = 0.0
        cost += sum(add_costs[v] for v in rep_vars if v not in used)
        cost += sum(del_costs[v] for v, target in mapping.items() if target is None)
        for site, site_candidates in candidates.items():
            if best is not None and cost >= best:
                return
            if not site.fixed and mapping[canonical[site.var]] is None:
                continue
            cheapest = site_cost(mapping, site, site_candidates)
            if cheapest is None:
                return
            cost += cheapest
        if best is None or cost < best:
            best = cost

    def assign(index, mapping, used):
        if index == len(impl_vars):
            evaluate(mapping)
            return
        var = impl_vars[index]
        for rep_var in rep_vars:
            if rep_var not in used:
                mapping[var] = rep_var
                assign(index + 1, mapping, used | {rep_var})
        mapping[var] = None
        assign(index + 1, mapping, used)
        del mapping[var]

    assign(0, {}, frozenset())
    return best
