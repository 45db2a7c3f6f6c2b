"""Branch-and-bound solver for 0-1 ILPs, with bound propagation on a trail.

The repair encoding (paper Def. 5.5) produces problems with a very regular
structure: "exactly one" choice groups (one per representative variable, one
per implementation variable, one per location/variable pair) plus implication
constraints tying selected local repairs to the chosen variable relation, with
non-negative objective coefficients only on the local-repair variables.

The solver below is a generic depth-first 0-1 branch-and-bound with:

* **bound propagation on a trail.**  Variables are indexed by int and their
  values live in one array (``-1`` = free).  Every row keeps its activity
  bounds — the least and greatest value its left-hand side can still take —
  incrementally: assigning a variable shifts the bounds of exactly the rows
  it occurs in.  Each assignment is pushed on a trail together with the row
  bounds it overwrote, and backtracking restores those saved values instead
  of subtracting, so the bounds stay exact for any coefficients and a child
  node copies nothing.  A free variable is forced when one of its values
  would make a row inconsistent; with the row's bounds at hand that test is
  O(1) per variable, and a row whose widest coefficient is below its slack
  cannot force anything and is skipped outright.
* **complete, order-free propagation.**  The root propagates from every row.
  A child starts from its parent's fixpoint and differs from it only in the
  branched variable, so only that variable's rows can newly force anything:
  they seed the queue, and every forced variable queues its own rows in turn.
  The rule is monotone (assigning more variables only tightens bounds), so
  the fixpoint it reaches — or the contradiction — does not depend on the
  order rows are visited in.  Every node therefore sees exactly the
  assignment a full re-propagation from all rows would produce, and the
  search, node counts included, is the same as with one.
* a lower bound that adds, for every undecided choice group disjoint from
  the groups already charged, the cheapest still-available member (plus the
  cost of every unassigned negative-cost variable);
* best-first variable selection (most constrained group first, cheapest value
  first), which reaches the optimum quickly for repair instances.

A node limit protects against pathological inputs; if it is hit, the best
incumbent found so far is returned with ``optimal=False``.
"""

from __future__ import annotations

from .problem import ILP_NODE_LIMIT, IlpProblem, IlpSolution

__all__ = ["solve", "IlpError", "InfeasibleError"]


class IlpError(Exception):
    """Base class for solver errors."""


class InfeasibleError(IlpError):
    """No feasible assignment was found.

    ``proven`` distinguishes a completed argument (root propagation reached
    a contradiction, or the search space was exhausted with neither a node
    limit nor an initial ``upper_bound`` in play) from a search that merely
    *failed to find* an assignment because it was truncated by the node
    limit or restricted to solutions beating an incumbent bound.  Only
    proven infeasibility may be memoized by
    :class:`repro.ilp.fastpath.SolveCache`.

    ``nodes_explored`` carries the branch-and-bound node count at the time
    of the raise, so profiling can attribute infeasible solves too.
    """

    def __init__(
        self,
        message: str = "no feasible assignment exists",
        *,
        proven: bool = True,
        nodes_explored: int = 0,
    ) -> None:
        super().__init__(message)
        self.proven = proven
        self.nodes_explored = nodes_explored


def solve(
    problem: IlpProblem,
    *,
    node_limit: int = ILP_NODE_LIMIT,
    upper_bound: float | None = None,
) -> IlpSolution:
    """Solve a 0-1 ILP; raises :class:`InfeasibleError` if no solution exists.

    Args:
        problem: The 0-1 program to solve.
        node_limit: Branch-and-bound node budget.  When it is hit, the best
            incumbent found so far is returned with ``optimal=False``; if no
            incumbent exists yet, :class:`InfeasibleError` is raised with
            ``proven=False``.
        upper_bound: Optional incumbent objective value used to warm-start
            the search (in the problem's own objective sense): only
            solutions *strictly better* than the bound are considered, and
            branches that cannot beat it are pruned immediately.  When no
            solution beats the bound, :class:`InfeasibleError` is raised
            with ``proven=False`` — the problem may still be feasible.
            Because pruning only ever removes completions that are at least
            as costly as the current incumbent, a warm-started solve that
            does return a solution returns exactly the one the cold solve
            would have found.
    """
    solver = _Solver(problem, node_limit=node_limit, upper_bound=upper_bound)
    return solver.run()


class _Solver:
    def __init__(
        self,
        problem: IlpProblem,
        node_limit: int,
        upper_bound: float | None = None,
    ) -> None:
        self.problem = problem
        self.node_limit = node_limit
        self.variables = problem.variables
        # The problem's rows (see IlpProblem), read as stored; only the
        # activity bounds change during the search, so only they are
        # copied.  A row is consistent while lower <= row_max and
        # upper >= row_min.  Costs are normalized to minimisation.
        self.cost = problem.cost if problem.minimize else [-coeff for coeff in problem.cost]
        self.row_terms = problem.row_terms
        self.row_min, self.row_max = problem.row_min, problem.row_max
        self.row_widest = problem.row_widest
        self.var_rows = problem.var_rows
        self.groups = problem.groups
        self.lower = list(problem.lower)
        self.upper = list(problem.upper)
        # Variables whose (normalized) cost is negative: every one still
        # unassigned may yet lower the objective, so the lower bound must
        # charge them.  Repair instances have non-negative costs only, but
        # maximisation problems negate into this case.
        self.negative_vars = [var for var, coeff in enumerate(self.cost) if coeff < 0]

        # Search state: the value array, the trail of assigned variables, the
        # row bounds each assignment overwrote, and the cost of the variables
        # set to 1.
        self.values: list[int] = [-1] * len(self.variables)
        self.trail: list[int] = []
        self.saved: list[tuple[int, float, float]] = []
        self.current = 0.0

        # ``best_cost`` lives in the normalized (minimisation) space; an
        # externally supplied incumbent bound is translated into it.
        self.bounded = upper_bound is not None
        if upper_bound is None:
            self.best_cost = float("inf")
        elif problem.minimize:
            self.best_cost = upper_bound
        else:
            self.best_cost = -upper_bound
        self.best_values: list[int] | None = None
        self.nodes = 0
        self.truncated = False

    # -- public ----------------------------------------------------------------

    def run(self) -> IlpSolution:
        if not self._propagate(list(range(len(self.row_terms)))):
            # A propagation contradiction is a complete argument: it uses
            # neither the node limit nor the incumbent bound.
            raise InfeasibleError(
                "propagation found the root infeasible",
                proven=True,
                nodes_explored=self.nodes,
            )
        self._search()
        if self.best_values is None:
            if self.truncated:
                message = "node limit hit before any feasible assignment was found"
            elif self.bounded:
                message = "no feasible assignment beats the upper bound"
            else:
                message = "no feasible assignment exists"
            raise InfeasibleError(
                message,
                proven=not self.truncated and not self.bounded,
                nodes_explored=self.nodes,
            )
        values = dict(zip(self.variables, self.best_values))
        objective = self.problem.objective_value(values)
        return IlpSolution(
            values=values,
            objective=objective,
            optimal=not self.truncated,
            nodes_explored=self.nodes,
        )

    # -- propagation -------------------------------------------------------------

    def _assign(self, var: int, value: int, queue: list[int]) -> bool:
        """Set ``var``, shift its rows' bounds and queue them.

        Returns ``False`` when a row becomes inconsistent; the partial
        update stays on the trail for :meth:`_undo`.
        """
        self.values[var] = value
        self.trail.append(var)
        if value:
            self.current += self.cost[var]
        lower, upper, saved = self.lower, self.upper, self.saved
        row_min, row_max = self.row_min, self.row_max
        for row, pos, neg in self.var_rows[var]:
            low, high = lower[row], upper[row]
            saved.append((row, low, high))
            if value:
                low += pos
                high += neg
            else:
                low -= neg
                high -= pos
            lower[row] = low
            upper[row] = high
            if low > row_max[row] or high < row_min[row]:
                return False
            queue.append(row)
        return True

    def _propagate(self, queue: list[int]) -> bool:
        """Fix forced variables to fixpoint; return ``False`` on contradiction."""
        values, lower, upper = self.values, self.lower, self.upper
        row_min, row_max, row_widest = self.row_min, self.row_max, self.row_widest
        while queue:
            row = queue.pop()
            low, high = lower[row], upper[row]
            top, bottom = row_max[row], row_min[row]
            if low > top or high < bottom:
                return False
            widest = row_widest[row]
            if widest < top - low and widest < high - bottom:
                continue  # no single assignment can violate this row
            for var, pos, neg in self.row_terms[row]:
                if values[var] >= 0:
                    continue
                if low - neg > top or high - pos < bottom:
                    forced = 1  # setting it to 0 violates the row
                elif low + pos > top or high + neg < bottom:
                    forced = 0  # setting it to 1 violates the row
                else:
                    continue
                if not self._assign(var, forced, queue):
                    return False
                low, high = lower[row], upper[row]
        return True

    def _undo(self, trail_mark: int, saved_mark: int, cost: float) -> None:
        values, trail, saved = self.values, self.trail, self.saved
        lower, upper = self.lower, self.upper
        while len(saved) > saved_mark:
            row, low, high = saved.pop()
            lower[row] = low
            upper[row] = high
        while len(trail) > trail_mark:
            values[trail.pop()] = -1
        self.current = cost

    # -- bounding -----------------------------------------------------------------

    def _open_groups(self) -> list[list[int]]:
        """Free members of every choice group that no member satisfies yet."""
        values = self.values
        open_groups = []
        for members in self.groups:
            free = []
            for var in members:
                value = values[var]
                if value == 1:
                    break
                if value < 0:
                    free.append(var)
            else:
                open_groups.append(free)
        return open_groups

    def _lower_bound(self, open_groups: list[list[int]]) -> float:
        values, cost = self.values, self.cost
        bound = self.current
        for var in self.negative_vars:
            if values[var] < 0:
                bound += cost[var]
        counted: set[int] = set()
        for available in open_groups:
            # Only charge groups whose available members are disjoint from
            # every group already charged: a shared variable set to 1 could
            # satisfy both groups at a single cost, so charging the
            # remaining members of an overlapping group would overcharge
            # (an inadmissible bound that prunes true optima).
            if not available or not counted.isdisjoint(available):
                continue
            cheapest = min(cost[var] for var in available)
            if cheapest > 0:
                bound += cheapest
                counted.update(available)
        return bound

    # -- search -----------------------------------------------------------------

    def _select_variable(self, open_groups: list[list[int]]) -> int:
        # Prefer a free variable from the tightest undecided choice group,
        # cheapest first; ties keep the earliest group and member.
        cost = self.cost
        best_var = -1
        best_size = float("inf")
        best_cost = 0.0
        for free in open_groups:
            size = len(free)
            if not size or size > best_size:
                continue
            for var in free:
                if size < best_size or cost[var] < best_cost:
                    best_var, best_size, best_cost = var, size, cost[var]
        if best_var >= 0:
            return best_var
        try:
            return self.values.index(-1)
        except ValueError:
            return -1

    def _search(self) -> None:
        self.nodes += 1
        if self.nodes >= self.node_limit:
            self.truncated = True
            return
        open_groups = self._open_groups()
        if self._lower_bound(open_groups) >= self.best_cost:
            return
        variable = self._select_variable(open_groups)
        if variable < 0:
            # Every row was checked when its last variable was assigned
            # (empty rows at the root), so a complete assignment is feasible.
            if self.current < self.best_cost:
                self.best_cost = self.current
                self.best_values = list(self.values)
            return
        # Try the cheaper value first (for minimisation with non-negative
        # costs that is almost always 0, but selecting a repair variable to 1
        # is what satisfies choice groups, so order by resulting bound).
        order = (0, 1) if self.cost[variable] > 0 else (1, 0)
        marks = (len(self.trail), len(self.saved), self.current)
        for value in order:
            queue: list[int] = []
            if self._assign(variable, value, queue) and self._propagate(queue):
                self._search()
            self._undo(*marks)
