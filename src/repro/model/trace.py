"""Execution traces (paper Def. 3.5).

A trace is a sequence of :class:`TraceStep` objects, one per visited
location.  Each step records the *pre*-state (the paper's unprimed variables
``v``) and the *post*-state (primed variables ``v'``).  Matching compares the
post-state projections of variables; expression matching re-evaluates
candidate expressions on the pre-states.

Storage is copy-on-write: the executor used to copy the full memory dict
twice per step (every variable, even though a location writes only a few),
which dominated execution cost on loop-heavy programs.  A trace now keeps
one :class:`TraceMemory` — a per-variable changelog shared by all of its
steps — and each step records only the variables its location wrote.
``pre``/``post`` are :class:`StepMemory` views that answer lookups lazily
from the changelog (binary search over a variable's few changes), and
compare equal to the plain dicts they replace, so the public API
(:meth:`Trace.final_memory`, :meth:`Trace.steps_at`, :func:`project`,
mapping access on ``step.pre``/``step.post``) is unchanged.  Plain dicts
remain accepted wherever a mapping is, e.g. when tests build steps by hand
or the interpreted reference executor snapshots full memories.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from typing import Iterable, Iterator

__all__ = ["TraceMemory", "StepMemory", "TraceStep", "Trace", "project"]

#: Internal marker distinguishing "never defined at this step" from ``None``.
_MISSING = object()


class TraceMemory:
    """Per-variable changelog backing the steps of one trace.

    For each variable the memory stores the step indices at which it was
    written and the values written, as parallel lists; initial values are
    recorded at index ``-1``.  The value of a variable *after* step ``i``
    is its last change with index ``<= i`` — found by binary search over a
    list that is typically tiny (most variables change a handful of times).

    Instances are append-only during execution and immutable afterwards;
    views over them are safe to share between threads.
    """

    __slots__ = ("_histories",)

    def __init__(self, initial: Mapping[str, object]) -> None:
        self._histories: dict[str, tuple[list[int], list[object]]] = {
            name: ([-1], [value]) for name, value in initial.items()
        }

    def write(self, index: int, var: str, value: object) -> None:
        """Record that step ``index`` wrote ``value`` to ``var``.

        Steps execute in order, so indices per variable are appended
        strictly increasing — which is what keeps lookups a plain bisect.
        """
        history = self._histories.get(var)
        if history is None:
            self._histories[var] = ([index], [value])
        else:
            history[0].append(index)
            history[1].append(value)

    def lookup(self, var: str, index: int) -> object:
        """Value of ``var`` after step ``index`` (``_MISSING`` if undefined)."""
        history = self._histories.get(var)
        if history is None:
            return _MISSING
        steps, values = history
        at = bisect_right(steps, index) - 1
        if at < 0:
            return _MISSING
        return values[at]

    def names_at(self, index: int) -> list[str]:
        """Variables defined after step ``index`` (insertion order)."""
        return [
            name
            for name, (steps, _values) in self._histories.items()
            if steps[0] <= index
        ]


class StepMemory(Mapping):
    """Lazy mapping view of a :class:`TraceMemory` at one step index.

    Behaves exactly like the full-memory dict snapshot the executor used to
    store: same keys, same values, equal (``==``) to that dict.  Lookups
    cost one dict probe plus a bisect over the variable's changelog.
    """

    __slots__ = ("_memory", "_index")

    def __init__(self, memory: TraceMemory, index: int) -> None:
        self._memory = memory
        self._index = index

    def __getitem__(self, key: str) -> object:
        value = self._memory.lookup(key, self._index)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def get(self, key: str, default: object = None) -> object:
        value = self._memory.lookup(key, self._index)
        return default if value is _MISSING else value

    def __contains__(self, key: object) -> bool:
        return self._memory.lookup(key, self._index) is not _MISSING

    def __iter__(self) -> Iterator[str]:
        return iter(self._memory.names_at(self._index))

    def __len__(self) -> int:
        return len(self._memory.names_at(self._index))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    # Mapping views are unhashable, like dicts.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StepMemory({dict(self)!r})"


class TraceStep:
    """One trace element ``(ℓ, σ)``.

    Attributes:
        loc_id: The visited location.
        pre: Variable values before the location executes (``σ(v)``).
        post: Variable values after the location executes (``σ(v')``).
        written_vars: Names the location actually wrote at this step, in
            update order (``None`` when unknown, e.g. for steps built from
            plain dict snapshots).  ``post`` differs from ``pre`` on at
            most these variables.
    """

    __slots__ = ("loc_id", "pre", "post", "written_vars")

    def __init__(
        self,
        loc_id: int,
        pre: Mapping[str, object],
        post: Mapping[str, object],
        written_vars: "tuple[str, ...] | None" = None,
    ) -> None:
        self.loc_id = loc_id
        self.pre = pre
        self.post = post
        self.written_vars = written_vars

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceStep):
            return NotImplemented
        # written_vars is storage metadata, not observable semantics: a
        # COW step and a dict-snapshot step of the same execution are equal.
        return (
            self.loc_id == other.loc_id
            and self.pre == other.pre
            and self.post == other.post
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TraceStep(loc_id={self.loc_id}, pre={dict(self.pre)!r}, post={dict(self.post)!r})"


class Trace:
    """A finite program trace together with its final memory."""

    def __init__(self, steps: Iterable[TraceStep], *, aborted: bool = False) -> None:
        self.steps: list[TraceStep] = list(steps)
        #: ``True`` when execution hit a resource limit (the step budget of
        #: a non-terminating attempt) or encountered a state from which no
        #: successor could be chosen.
        self.aborted = aborted
        #: Lazily built per-location index behind :meth:`steps_at`.
        self._loc_index: dict[int, list[TraceStep]] | None = None

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> TraceStep:
        return self.steps[index]

    @property
    def location_sequence(self) -> tuple[int, ...]:
        """The control-flow path taken, as a tuple of location ids."""
        return tuple(step.loc_id for step in self.steps)

    def final_memory(self) -> Mapping[str, object]:
        """Return the post-state of the final step (empty if no steps)."""
        if not self.steps:
            return {}
        return self.steps[-1].post

    def final_value(self, var: str, default: object = None) -> object:
        """Return the final value of ``var`` (``default`` if never defined)."""
        return self.final_memory().get(var, default)

    def steps_at(self, loc_id: int) -> list[TraceStep]:
        """Return all steps taken at a given location.

        The per-location index is built once, on first use, instead of
        scanning the whole step list per call — local repair asks for the
        visits of the same few locations over and over.  The returned list
        is shared with the index; callers must treat it as immutable
        (traces are immutable after construction).
        """
        index = self._loc_index
        if index is None:
            index = {}
            for step in self.steps:
                index.setdefault(step.loc_id, []).append(step)
            self._loc_index = index
        return index.get(loc_id, [])


def project(trace: Trace, var: str) -> tuple[object, ...]:
    """Project the post-state values of ``var`` from a trace (``γ|v``)."""
    return tuple(step.post.get(var) for step in trace.steps)
