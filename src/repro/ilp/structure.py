"""Canonical fingerprints of 0-1 ILPs.

MOOC corpora re-solve structurally identical programs, so the same repair
ILP — up to variable and constraint insertion order — appears over and
over.  :func:`problem_fingerprint` computes a canonical, hashable normal
form (sorted variables, sorted non-zero objective coefficients, sorted
constraints with sorted coefficient vectors) that is independent of
construction order and of ``PYTHONHASHSEED``, suitable as a memo key for
:class:`repro.ilp.fastpath.SolveCache`.
"""

from __future__ import annotations

from .problem import IlpProblem

__all__ = ["problem_fingerprint"]


def problem_fingerprint(problem: IlpProblem) -> tuple:
    """Canonical, hashable normal form of a 0-1 ILP.

    Two problems get the same fingerprint iff they have the same variable
    set, the same (non-zero) objective, the same optimisation sense and the
    same multiset of constraints — regardless of the order in which
    variables and constraints were added or coefficients listed, and
    independent of the process hash seed (everything is sorted, nothing
    iterates a set).  Constraint names are cosmetic and excluded.
    """
    objective = tuple(
        sorted((var, coeff) for var, coeff in problem.objective.items() if coeff)
    )
    constraints = tuple(
        sorted(
            (constraint.sense, constraint.rhs, tuple(sorted(constraint.coeffs)))
            for constraint in problem.constraints
        )
    )
    return (
        problem.minimize,
        tuple(sorted(problem.variables)),
        objective,
        constraints,
    )
