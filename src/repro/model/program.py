"""The Clara program model (paper §3, Def. 3.2).

A :class:`Program` is a finite set of :class:`Location` objects, an initial
location, a set of variables, a variable update function ``U : (L × V) → E``
and a successor function ``S : (L × {True, False}) → L ∪ {end}``.

Every location performs a *parallel* assignment: all update expressions are
evaluated on the pre-state, then all variables step to their new values at
once.  Front-ends are responsible for composing sequential statements into
this form (see :mod:`repro.frontend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from .expr import (
    Expr,
    Var,
    VAR_COND,
    VAR_OUT,
    VAR_RET,
    is_special_var,
)

__all__ = ["Location", "Program", "END"]

#: Sentinel successor meaning "the program terminates" (the paper's ``end``).
END: Optional[int] = None


@dataclass
class Location:
    """A single control-flow location.

    Attributes:
        loc_id: Numeric identifier, unique within the program.
        name: Human-readable label (``"before-loop"``, ``"loop-body"``, ...),
            used by feedback messages.
        line: Source line number of the first statement contributing to the
            location, if known.
        updates: Mapping of variable name to its update expression.  Variables
            absent from the mapping implicitly keep their value (``U(ℓ, v) =
            v``).
    """

    loc_id: int
    name: str = ""
    line: Optional[int] = None
    updates: dict[str, Expr] = field(default_factory=dict)

    def update_for(self, var: str) -> Expr:
        """Return ``U(ℓ, var)``, defaulting to the identity update."""
        return self.updates.get(var, Var(var))

    def copy(self) -> "Location":
        return Location(self.loc_id, self.name, self.line, dict(self.updates))


class Program:
    """A program in the Clara model.

    Args:
        name: Function name (or ``"main"`` for C programs).
        params: Ordered parameter names; inputs bind these variables.
        source: Original source text, kept for feedback and size metrics.
        language: ``"python"`` or ``"c"`` (informational only).
    """

    def __init__(
        self,
        name: str,
        params: Iterable[str] = (),
        source: str | None = None,
        language: str = "python",
    ) -> None:
        self.name = name
        self.params: list[str] = list(params)
        self.source = source
        self.language = language
        self.locations: dict[int, Location] = {}
        self.init_loc: Optional[int] = None
        # Successor function: (loc_id, bool) -> loc_id or END.
        self._succ: dict[tuple[int, bool], Optional[int]] = {}
        self._next_id = 0

    # -- construction --------------------------------------------------------

    def add_location(self, name: str = "", line: Optional[int] = None) -> Location:
        """Create and register a fresh location."""
        loc = Location(self._next_id, name=name, line=line)
        self.locations[loc.loc_id] = loc
        self._next_id += 1
        if self.init_loc is None:
            self.init_loc = loc.loc_id
        return loc

    def set_successor(
        self, loc_id: int, on_true: Optional[int], on_false: Optional[int]
    ) -> None:
        """Define ``S(ℓ, True)`` and ``S(ℓ, False)``."""
        self._succ[(loc_id, True)] = on_true
        self._succ[(loc_id, False)] = on_false

    def set_update(self, loc_id: int, var: str, expr: Expr) -> None:
        """Define ``U(ℓ, var) = expr``."""
        self.locations[loc_id].updates[var] = expr

    # -- accessors ------------------------------------------------------------

    def successor(self, loc_id: int, branch: bool) -> Optional[int]:
        """Return ``S(ℓ, branch)``; ``None`` encodes the ``end`` location."""
        return self._succ.get((loc_id, bool(branch)), END)

    def update_for(self, loc_id: int, var: str) -> Expr:
        """Return ``U(ℓ, var)``."""
        return self.locations[loc_id].update_for(var)

    def location_ids(self) -> list[int]:
        """Return location identifiers in creation order."""
        return sorted(self.locations)

    @property
    def variables(self) -> list[str]:
        """All variables mentioned in the program (assigned or read)."""
        seen: dict[str, None] = {}
        for param in self.params:
            seen.setdefault(param, None)
        for loc_id in self.location_ids():
            loc = self.locations[loc_id]
            for var, expr in loc.updates.items():
                seen.setdefault(var, None)
                for name in expr.variables():
                    seen.setdefault(name, None)
        return list(seen)

    @property
    def user_variables(self) -> list[str]:
        """Variables that are not model-internal (``$``-prefixed)."""
        return [v for v in self.variables if not is_special_var(v)]

    def is_branching(self, loc_id: int) -> bool:
        """Return ``True`` if the two successors of ``loc_id`` differ."""
        return self.successor(loc_id, True) != self.successor(loc_id, False)

    def ast_size(self) -> int:
        """Total number of expression AST nodes (used for relative repair size)."""
        total = 0
        for loc_id in self.location_ids():
            for var, expr in self.locations[loc_id].updates.items():
                if expr == Var(var):
                    continue
                total += expr.size()
        return total

    def iter_updates(self) -> Iterator[tuple[int, str, Expr]]:
        """Yield ``(loc_id, var, expr)`` for every explicit update."""
        for loc_id in self.location_ids():
            for var, expr in self.locations[loc_id].updates.items():
                yield loc_id, var, expr

    def structure_key(self) -> tuple:
        """Return a hashable fingerprint of the program model.

        Two programs with equal keys have identical parameters, locations,
        update functions and successor functions, and therefore identical
        semantics under the trace semantics of Def. 3.5 — their traces on any
        input agree step for step.  The engine layer
        (:mod:`repro.engine.cache`) keys its trace, correctness and
        structural-match caches on this fingerprint so that syntactically
        identical attempts (ubiquitous in MOOC dumps, where students resubmit
        unchanged or copied code) are executed and matched only once.

        The key reflects the program's *current* state and is recomputed on
        every call; callers that mutate programs (the repair decoder does)
        must not reuse a previously obtained key.
        """
        locations = tuple(
            (
                loc_id,
                tuple(sorted(self.locations[loc_id].updates.items())),
            )
            for loc_id in self.location_ids()
        )
        successors = tuple(sorted(self._succ.items()))
        return (tuple(self.params), self.init_loc, locations, successors)

    def cfg_skeleton(self) -> tuple[tuple[int, ...], tuple]:
        """Canonicalize the control-flow graph (Def. 4.1 as an equality test).

        Returns ``(order, skeleton)`` where ``order`` lists the reachable
        location ids in canonical visit order (initial location first, then
        breadth-first, true-successor before false-successor) and
        ``skeleton`` encodes the successor structure over canonical indices.

        The structural matching of Def. 4.1 is a bijection forced step by
        step from the initial locations, so two fully reachable programs
        admit a structural match **iff** their skeletons are equal — and the
        witness is exactly ``order_a[i] -> order_b[i]``.  The clustering
        layer uses this to index clusters by control-flow shape instead of
        attempting a lockstep walk against every representative
        (:mod:`repro.clusterstore.fingerprint`).

        The skeleton also records the total location count: a program with
        unreachable locations can never match anything (the Def. 4.1
        bijection must cover all locations), and the count keeps such
        programs from sharing a skeleton with their reachable core.
        """
        if self.init_loc is None:
            return (), ("empty", len(self.locations))
        order: list[int] = [self.init_loc]
        canon: dict[int, int] = {self.init_loc: 0}
        successors: list[tuple[object, object]] = []
        cursor = 0
        while cursor < len(order):
            loc_id = order[cursor]
            cursor += 1
            encoded: list[object] = []
            for branch in (True, False):
                succ = self.successor(loc_id, branch)
                if succ is None:
                    encoded.append(None)
                    continue
                if succ not in canon:
                    canon[succ] = len(order)
                    order.append(succ)
                encoded.append(canon[succ])
            successors.append((encoded[0], encoded[1]))
        return tuple(order), (tuple(successors), len(self.locations))

    # -- transformations -------------------------------------------------------

    def copy(self) -> "Program":
        """Deep-copy the program (expressions are immutable and shared)."""
        clone = Program(self.name, self.params, self.source, self.language)
        clone.init_loc = self.init_loc
        clone._next_id = self._next_id
        clone.locations = {lid: loc.copy() for lid, loc in self.locations.items()}
        clone._succ = dict(self._succ)
        return clone

    def rename_variables(self, mapping: Mapping[str, str]) -> "Program":
        """Return a copy with variables renamed everywhere (params included)."""
        clone = self.copy()
        clone.params = [mapping.get(p, p) for p in self.params]
        for loc in clone.locations.values():
            loc.updates = {
                mapping.get(var, var): expr.rename_vars(dict(mapping))
                for var, expr in loc.updates.items()
            }
        return clone

    def prune_unread_flags(self) -> None:
        """Drop synthetic flag variables that are assigned but never read.

        Front-ends introduce variables such as ``$retflag`` or per-loop break
        flags.  When the simplifier folds away every read of such a flag the
        assignments become dead weight that would only add noise to variable
        matching, so we remove them.  Observable variables (``$ret``,
        ``$out``, ``$cond``, ``$stdin``) and user variables are never pruned.
        """
        protected = {VAR_RET, VAR_OUT, VAR_COND}
        while True:
            read: set[str] = set()
            for _, _, expr in self.iter_updates():
                read |= expr.variables()
            removed = False
            for loc in self.locations.values():
                for var in list(loc.updates):
                    if (
                        is_special_var(var)
                        and var not in protected
                        and not var.startswith("$iter")
                        and var != "$stdin"
                        and var not in read
                    ):
                        del loc.updates[var]
                        removed = True
            if not removed:
                return

    # -- debugging -------------------------------------------------------------

    def describe(self) -> str:
        """Return a readable multi-line dump of the program model."""
        lines = [f"program {self.name}({', '.join(self.params)})"]
        for loc_id in self.location_ids():
            loc = self.locations[loc_id]
            succ_t = self.successor(loc_id, True)
            succ_f = self.successor(loc_id, False)
            lines.append(
                f"  loc {loc_id} [{loc.name}]"
                f" -> true:{succ_t if succ_t is not None else 'end'}"
                f" false:{succ_f if succ_f is not None else 'end'}"
            )
            for var, expr in loc.updates.items():
                lines.append(f"    {var} := {expr}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Program {self.name} locs={len(self.locations)}>"
