"""Zero-one integer linear programs (paper Def. 5.5).

A problem consists of binary variables, linear constraints with sense ``=``,
``>=`` or ``<=``, and a linear objective to minimise or maximise.  This is
exactly the class of problems the repair algorithm produces; the solver in
:mod:`repro.ilp.solver` replaces the off-the-shelf ``lpsolve`` used by the
paper's implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = ["IlpProblem", "IlpSolution", "ILP_NODE_LIMIT"]

#: Branch-and-bound node budget of every solve, the repair ILP's included.
#: A solve that reaches it returns its best incumbent (``optimal=False``),
#: which the solve memo does not store.
ILP_NODE_LIMIT = 200_000

#: Feasibility tolerance on row activities.
_EPS = 1e-9


@dataclass
class IlpSolution:
    """A feasible assignment together with its objective value."""

    values: dict[str, int]
    objective: float
    optimal: bool = True
    nodes_explored: int = 0

    def __getitem__(self, var: str) -> int:
        return self.values[var]


class IlpProblem:
    """A 0-1 ILP, stored by variable index in the form the solver searches.

    ``index`` maps each variable to its position in ``variables``, assigned
    as it is declared; ``cost`` holds its objective coefficient there.  Each
    constraint becomes a row as it is added:

    * ``row_terms[row]`` — its ``(var, pos, neg)`` terms, a variable
      repeated in the row merged into one term (first occurrence order);
    * ``lower[row]`` / ``upper[row]`` — the least and greatest value its
      left-hand side can take with every variable free;
    * ``row_widest[row]`` — its widest single coefficient;
    * ``row_min[row]`` / ``row_max[row]`` — the range (with tolerance) its
      left-hand side must end in, infinite on the side the sense leaves
      open.

    ``var_rows[var]`` lists the ``(row, pos, neg)`` occurrences of each
    variable, and ``groups`` the members of every "exactly one" row (sense
    ``==``, right-hand side 1, every coefficient 1, as given — a repeated
    member stays repeated).
    """

    def __init__(self, *, minimize: bool = True) -> None:
        self.minimize = minimize
        self.variables: list[str] = []
        self.index: dict[str, int] = {}
        self.cost: list[float] = []
        self.var_rows: list[list[tuple[int, float, float]]] = []
        self.row_terms: list[tuple[tuple[int, float, float], ...]] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.row_widest: list[float] = []
        self.row_min: list[float] = []
        self.row_max: list[float] = []
        self.groups: list[tuple[int, ...]] = []

    # -- construction ----------------------------------------------------------

    def add_variable(self, name: str, objective: float = 0.0) -> str:
        """Declare a binary variable; repeated declarations are idempotent
        (their objective coefficients add up)."""
        position = self.index.get(name)
        if position is None:
            position = self.index[name] = len(self.variables)
            self.variables.append(name)
            self.cost.append(0.0)
            self.var_rows.append([])
        if objective:
            self.cost[position] += objective
        return name

    def add_constraint(
        self,
        coeffs: Mapping[str, float] | Iterable[tuple[str, float]],
        sense: str,
        rhs: float,
    ) -> None:
        """Add ``sum(coeff * var) sense rhs``; unknown variables are declared."""
        if sense not in ("==", ">=", "<="):
            raise ValueError(f"invalid constraint sense: {sense!r}")
        # A list or tuple skips the (slower) Mapping ABC check.
        items = coeffs
        if type(items) not in (list, tuple):
            items = tuple(items.items() if isinstance(items, Mapping) else items)
        index = self.index
        terms = []
        for var, coeff in items:
            if var not in index:
                self.add_variable(var)
            terms.append((index[var], coeff, 0.0) if coeff >= 0 else (index[var], 0.0, coeff))
        if sense == "==" and rhs == 1.0 and all(coeff == 1.0 for _, coeff in items):
            self.groups.append(tuple(term[0] for term in terms))
        if len({term[0] for term in terms}) < len(terms):
            merged: dict[int, tuple[float, float]] = {}
            for var, pos, neg in terms:
                old_pos, old_neg = merged.get(var, (0.0, 0.0))
                merged[var] = (old_pos + pos, old_neg + neg)
            terms = [(var, pos, neg) for var, (pos, neg) in merged.items()]

        row = len(self.row_terms)
        var_rows = self.var_rows
        low = high = widest = 0.0
        for var, pos, neg in terms:
            var_rows[var].append((row, pos, neg))
            low += neg
            high += pos
            if pos > widest:
                widest = pos
            if -neg > widest:
                widest = -neg
        self.row_terms.append(tuple(terms))
        self.lower.append(low)
        self.upper.append(high)
        self.row_widest.append(widest)
        rhs = float(rhs)
        self.row_min.append(rhs - _EPS if sense != "<=" else -float("inf"))
        self.row_max.append(rhs + _EPS if sense != ">=" else float("inf"))

    def add_exactly_one(self, variables: Iterable[str]) -> None:
        """Convenience for the ubiquitous ``sum(vars) == 1`` constraints."""
        self.add_constraint([(v, 1.0) for v in variables], "==", 1.0)

    def add_implication(self, antecedent: str, consequent: str) -> None:
        """Add ``antecedent -> consequent`` as ``-antecedent + consequent >= 0``."""
        self.add_constraint([(antecedent, -1.0), (consequent, 1.0)], ">=", 0.0)

    # -- introspection ----------------------------------------------------------

    def objective_value(self, values: Mapping[str, int]) -> float:
        return sum(
            coeff * values.get(var, 0)
            for var, coeff in zip(self.variables, self.cost)
            if coeff
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<IlpProblem vars={len(self.variables)} "
            f"constraints={len(self.row_terms)}>"
        )
