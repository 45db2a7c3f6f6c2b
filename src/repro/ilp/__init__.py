"""0-1 integer linear programming substrate."""

from .fastpath import SolveCache, solve_fast
from .problem import ILP_NODE_LIMIT, IlpProblem, IlpSolution
from .solver import IlpError, InfeasibleError, solve

__all__ = [
    "IlpProblem",
    "IlpSolution",
    "solve",
    "solve_fast",
    "SolveCache",
    "IlpError",
    "InfeasibleError",
    "ILP_NODE_LIMIT",
]
