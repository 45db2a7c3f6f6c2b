"""The solver fast path: solve memoization and warm starts.

Plain :func:`repro.ilp.solver.solve` remains the executable specification;
:func:`solve_fast` is the entry point the repair pipeline actually calls.
It layers two accelerations on top of the spec, each of which is
objective-identical to it by construction:

1. **Memoization** (:class:`SolveCache`).  Problems are keyed as built:
   direction, variables, costs, rows and choice groups as
   :class:`~repro.ilp.problem.IlpProblem` stores them, all in declaration
   order.  The repair ILP is built in the attempt's canonical
   names (:mod:`repro.core.repair`), so attempts that differ only in
   variable names build the same problem in the same order and share one
   entry; no second normal form is needed.
   Only *unconditional* verdicts are stored: optimal solutions
   (``optimal=True``) and proven infeasibility
   (:class:`~repro.ilp.solver.InfeasibleError` with ``proven=True``).
   Node-limit-truncated incumbents and bound-restricted misses are passed
   through uncached, so a cached answer is valid under any later
   ``upper_bound``.

2. **Warm starts.**  An ``upper_bound`` (the best repair cost found so far
   in :func:`repro.core.repair.find_best_repair`) is forwarded to
   branch-and-bound as the initial incumbent.  A solve that cannot beat the
   bound returns ``None`` instead of raising, which callers treat exactly
   like the documented ``cost_bound`` contract: a repair at least as costly
   as the current best could never be selected anyway.

Counters (hits, misses, nodes explored) surface through ``batch --profile``
and the service stats endpoint, next to the TED and compile cache counters.
"""

from __future__ import annotations

import threading

from .problem import ILP_NODE_LIMIT, IlpProblem, IlpSolution
from .solver import InfeasibleError, solve

__all__ = ["SolveCache", "solve_fast"]

#: Cache sentinel: the problem was *proven* infeasible.
_INFEASIBLE = object()
#: Lookup sentinel: no cached entry.
_MISS = object()


class SolveCache:
    """Memo table and counters for ILP solves.

    One instance is owned by :class:`repro.engine.cache.RepairCaches`
    (created in its ``__post_init__`` alongside the TED and compile caches)
    and shared by every batch worker; all methods are lock-guarded.
    ``enabled=False`` turns every lookup into a miss (nothing is stored)
    while the counters keep counting, mirroring
    :class:`repro.ted.TedCache` — that is how the differential tests and
    the solver benchmark measure what the fast path avoids.

    Counters (monotonic):

    * ``hits`` / ``misses`` — lookups answered / not answered from the
      table (every miss runs branch-and-bound);
    * ``nodes_explored`` — total branch-and-bound nodes across misses
      (cache hits contribute zero).

    The table is size-bounded: at ``max_entries`` it simply stops storing
    (existing keys may still be refreshed), so a long-lived service cannot
    grow it without bound while hit/miss accounting stays deterministic.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 1 << 14) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._table: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.nodes_explored = 0

    # -- lookup/store ----------------------------------------------------------

    def key_for(self, problem: IlpProblem) -> tuple | None:
        """``problem`` as built, or ``None`` when caching is disabled.

        The key is the problem's stored form: direction, variable names,
        costs, rows (terms and ranges) and choice groups, all in
        declaration order.  The groups enter because merging a repeated
        variable can give two differently written rows the same terms
        while only one of them is an "exactly one" group the search
        branches on.
        """
        if not self.enabled:
            return None
        return (
            problem.minimize,
            tuple(problem.variables),
            tuple(problem.cost),
            tuple(problem.row_terms),
            tuple(problem.row_min),
            tuple(problem.row_max),
            tuple(problem.groups),
        )

    def lookup(self, key: tuple | None) -> object:
        """Return the stored verdict for ``key`` or the miss sentinel."""
        with self._lock:
            entry = _MISS if key is None else self._table.get(key, _MISS)
            if entry is _MISS:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def store(self, key: tuple | None, entry: object) -> None:
        if key is None:
            return
        with self._lock:
            if len(self._table) < self.max_entries or key in self._table:
                self._table[key] = entry

    def record(self, nodes: int) -> None:
        """Count branch-and-bound nodes (called by :func:`solve_fast`)."""
        with self._lock:
            self.nodes_explored += nodes

    # -- maintenance -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Snapshot of the counters, for reports and benchmarks."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "nodes_explored": self.nodes_explored,
            }

    def entry_counts(self) -> dict[str, int]:
        with self._lock:
            return {"solves": len(self._table)}

    def clear(self) -> None:
        """Drop memoized entries (counters are preserved)."""
        with self._lock:
            self._table.clear()


def _beats_bound(problem: IlpProblem, objective: float, bound: float) -> bool:
    return objective < bound if problem.minimize else objective > bound


def _copy(solution: IlpSolution, nodes_explored: int) -> IlpSolution:
    # Hand out a private values dict so neither the cache entry nor other
    # consumers of the same problem can be mutated through a result.
    return IlpSolution(
        values=dict(solution.values),
        objective=solution.objective,
        optimal=solution.optimal,
        nodes_explored=nodes_explored,
    )


def solve_fast(
    problem: IlpProblem,
    *,
    node_limit: int = ILP_NODE_LIMIT,
    cache: SolveCache | None = None,
    upper_bound: float | None = None,
) -> IlpSolution | None:
    """Solve a 0-1 ILP through the fast path.

    Objective-identical to :func:`repro.ilp.solver.solve` in every case
    (``tests/test_ilp_fastpath.py`` asserts it property-style), with two
    shortcuts: a memo lookup by the problem as built and incumbent
    warm-starting of branch-and-bound.

    Args:
        problem: The 0-1 program to solve.
        node_limit: Branch-and-bound node budget.
        cache: Optional :class:`SolveCache`.
        upper_bound: Optional incumbent objective.  When given, only a
            solution strictly better than the bound is returned; ``None``
            means no such solution exists (which does *not* prove the
            problem infeasible).

    Returns:
        The solution, or ``None`` when ``upper_bound`` is set and cannot be
        beaten (including unproven infeasibility under the bound or the
        node limit).

    Raises:
        InfeasibleError: Proven infeasibility (always), or unproven
            (node-limit truncation with no incumbent) when no
            ``upper_bound`` was supplied — mirroring the spec solver.
    """
    key: tuple | None = None
    if cache is not None:
        key = cache.key_for(problem)
        entry = cache.lookup(key)
        if entry is not _MISS:
            if entry is _INFEASIBLE:
                raise InfeasibleError(
                    "memoized verdict: no feasible assignment exists", proven=True
                )
            assert isinstance(entry, IlpSolution)
            if upper_bound is not None and not _beats_bound(
                problem, entry.objective, upper_bound
            ):
                return None
            return _copy(entry, nodes_explored=0)

    try:
        solution = solve(problem, node_limit=node_limit, upper_bound=upper_bound)
    except InfeasibleError as error:
        if cache is not None:
            cache.record(error.nodes_explored)
            if error.proven:
                cache.store(key, _INFEASIBLE)
        if not error.proven and upper_bound is not None:
            return None
        raise
    if cache is not None:
        cache.record(solution.nodes_explored)
        if solution.optimal:
            # An optimal solution is the global optimum even when found
            # under an upper bound: warm-start pruning only ever discards
            # completions at least as costly as the incumbent.
            cache.store(key, _copy(solution, solution.nodes_explored))
    return solution
