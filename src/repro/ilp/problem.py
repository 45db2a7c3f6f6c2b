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

__all__ = ["Constraint", "IlpProblem", "IlpSolution"]


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``sum(coeffs[v] * v) sense rhs``."""

    coeffs: tuple[tuple[str, float], ...]
    sense: str  # "==", ">=" or "<="
    rhs: float


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
    """A 0-1 ILP under construction.

    ``index`` maps each variable to its position in ``variables``, assigned
    as it is declared; the solver indexes its rows by it.
    """

    def __init__(self, *, minimize: bool = True) -> None:
        self.minimize = minimize
        self.variables: list[str] = []
        self.index: dict[str, int] = {}
        self.constraints: list[Constraint] = []
        self.objective: dict[str, float] = {}

    # -- construction ----------------------------------------------------------

    def add_variable(self, name: str, objective: float = 0.0) -> str:
        """Declare a binary variable; repeated declarations are idempotent."""
        if name not in self.index:
            self.index[name] = len(self.variables)
            self.variables.append(name)
        if objective:
            self.objective[name] = self.objective.get(name, 0.0) + objective
        return name

    def add_constraint(
        self,
        coeffs: Mapping[str, float] | Iterable[tuple[str, float]],
        sense: str,
        rhs: float,
    ) -> Constraint:
        """Add ``sum(coeff * var) sense rhs``; unknown variables are declared."""
        if sense not in ("==", ">=", "<="):
            raise ValueError(f"invalid constraint sense: {sense!r}")
        # A list or tuple skips the (slower) Mapping ABC check.
        if type(coeffs) in (list, tuple) or not isinstance(coeffs, Mapping):
            items = tuple(coeffs)
        else:
            items = tuple(coeffs.items())
        index = self.index
        for var, _ in items:
            if var not in index:
                self.add_variable(var)
        constraint = Constraint(items, sense, float(rhs))
        self.constraints.append(constraint)
        return constraint

    def add_exactly_one(self, variables: Iterable[str]) -> Constraint:
        """Convenience for the ubiquitous ``sum(vars) == 1`` constraints."""
        return self.add_constraint([(v, 1.0) for v in variables], "==", 1.0)

    def add_implication(self, antecedent: str, consequent: str) -> Constraint:
        """Add ``antecedent -> consequent`` as ``-antecedent + consequent >= 0``."""
        return self.add_constraint([(antecedent, -1.0), (consequent, 1.0)], ">=", 0.0)

    # -- introspection ----------------------------------------------------------

    def objective_value(self, values: Mapping[str, int]) -> float:
        return sum(coeff * values.get(var, 0) for var, coeff in self.objective.items())

    def is_feasible(self, values: Mapping[str, int]) -> bool:
        """Check a full assignment against every constraint (used by tests)."""
        for constraint in self.constraints:
            total = sum(coeff * values.get(var, 0) for var, coeff in constraint.coeffs)
            if constraint.sense == "==" and abs(total - constraint.rhs) > 1e-9:
                return False
            if constraint.sense == ">=" and total < constraint.rhs - 1e-9:
                return False
            if constraint.sense == "<=" and total > constraint.rhs + 1e-9:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<IlpProblem vars={len(self.variables)} "
            f"constraints={len(self.constraints)}>"
        )
