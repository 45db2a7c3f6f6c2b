"""The repair ILP with one implication row per (candidate, ω pair).

:func:`repro.core.repair._build_ilp` states ω consistency as one row per
variable pair, ``sum(lr_i) - n * pair <= 0``.  This is the textbook
encoding it replaced, ``lr -> pair`` for every candidate ``lr`` and every
``(impl, rep)`` in its ω, kept only as an oracle: both encodings must
drive the solver through the same search.
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
                problem.add_implication(name, _pair_var(rep_var, impl_var))
        if site.fixed:
            if names:
                problem.add_exactly_one(names)
            else:
                problem.add_constraint([], "==", 1.0)
        else:
            names.append(_del_var(canonical.get(site.var, site.var)))
            problem.add_exactly_one(names)
    return problem
