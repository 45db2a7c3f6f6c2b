"""0-1 integer linear programming substrate."""

from .fastpath import SolveCache, solve_fast
from .problem import Constraint, IlpProblem, IlpSolution
from .solver import IlpError, InfeasibleError, solve

__all__ = [
    "Constraint",
    "IlpProblem",
    "IlpSolution",
    "solve",
    "solve_fast",
    "SolveCache",
    "IlpError",
    "InfeasibleError",
]
