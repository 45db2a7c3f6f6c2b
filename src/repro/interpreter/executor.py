"""Program execution producing traces (paper Def. 3.5).

The executor walks locations from the initial one, performing the parallel
assignment of each location and following the successor chosen by the value
of the ``$cond`` variable.  Execution is bounded by a step limit so that
non-terminating student attempts (a common class of mistakes) still yield a
finite, comparable trace (see :class:`ExecutionLimits`).  Values are shared,
not copied: inputs, constants and computed values go into the trace as the
objects they are, because nothing mutates a value once built
(:mod:`repro.interpreter.values`).

Two fast-path mechanisms make :func:`execute` cheap enough for
corpus-scale workloads (docs/ARCHITECTURE.md, "Execution fast path"):

* every update expression is compiled to a closure exactly once per
  program via an :class:`ExecutionPlan` (backed by a
  :class:`~repro.interpreter.compile.CompileCache`, so structurally
  identical expressions across programs share one closure), instead of
  being re-walked interpretively on every visit;
* trace memories are copy-on-write: a step records only the variables its
  location wrote into a shared :class:`~repro.model.trace.TraceMemory`
  changelog, instead of copying the full memory dict twice per step.

Observable semantics are byte-identical to the interpreted path, which is
kept as :func:`execute_interpreted` — the executable specification that
tests and benchmarks compare against, field for field.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..model.expr import VAR_COND, VAR_OUT, VAR_RET, VAR_RETFLAG
from ..model.program import Program
from ..model.trace import StepMemory, Trace, TraceMemory, TraceStep
from .compile import CompileCache, CompiledExpr, default_compile_cache
from .evaluator import evaluate, truthy
from .values import UNDEF, values_equal

__all__ = [
    "execute",
    "execute_interpreted",
    "run_on_inputs",
    "ExecutionLimits",
    "ExecutionPlan",
    "returned_value",
    "printed_output",
]

#: Default maximum number of location steps per execution.
DEFAULT_MAX_STEPS = 5000


class ExecutionLimits:
    """Resource limits applied to a single execution.

    Args:
        max_steps: Maximum number of location steps (bounds non-terminating
            control flow).  An execution that reaches it stops and returns
            an aborted trace.  Since each location's expressions are fixed,
            this also bounds the number of operations evaluated, though not
            the size of the values they build.
    """

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.max_steps = max_steps


class ExecutionPlan:
    """Precompiled per-program execution state.

    For each location: the ``(var, compiled expression)`` pairs of its
    parallel assignment in update order, the variables it writes, and its
    successor pair — plus the initial-memory template (every program
    variable bound to ⊥ and the special variables preset), which
    :func:`execute` copies instead of re-deriving the variable set per run.
    Build once per program and reuse across cases — :func:`run_on_inputs`
    and :func:`repro.core.inputs.program_traces` do.

    A plan snapshots the program's *current* updates and successors;
    callers that mutate a program (the repair decoder edits copies) must
    build a fresh plan.
    """

    __slots__ = ("updates", "written_vars", "successors", "initial_memory")

    def __init__(
        self,
        updates: dict[int, tuple[tuple[str, CompiledExpr], ...]],
        written_vars: dict[int, tuple[str, ...]],
        successors: dict[int, "tuple[int | None, int | None, bool]"],
        initial_memory: dict[str, object],
    ) -> None:
        self.updates = updates
        #: Per location, the assigned variable names in update order —
        #: shared by every step taken at the location.
        self.written_vars = written_vars
        #: ``loc_id -> (on_true, on_false, branching)``.
        self.successors = successors
        #: Template pre-state; copied (never mutated) per execution.
        self.initial_memory = initial_memory

    @classmethod
    def for_program(
        cls, program: Program, cache: CompileCache | None = None
    ) -> "ExecutionPlan":
        """Compile every update expression of ``program`` through ``cache``.

        ``cache`` defaults to the process-wide
        :func:`~repro.interpreter.compile.default_compile_cache`, so plans
        built for structurally overlapping programs (ubiquitous in MOOC
        corpora) share closures.
        """
        if cache is None:
            cache = default_compile_cache()
        updates: dict[int, tuple[tuple[str, CompiledExpr], ...]] = {}
        written_vars: dict[int, tuple[str, ...]] = {}
        successors: dict[int, tuple[int | None, int | None, bool]] = {}
        for loc_id, location in program.locations.items():
            updates[loc_id] = tuple(
                (var, cache.fn(expr)) for var, expr in location.updates.items()
            )
            written_vars[loc_id] = tuple(location.updates)
            on_true = program.successor(loc_id, True)
            on_false = program.successor(loc_id, False)
            successors[loc_id] = (on_true, on_false, on_true != on_false)
        # One construction path for the initial state: the interpreted
        # reference applies the same function per run, so the two executors
        # can never disagree on what a fresh memory contains.
        return cls(updates, written_vars, successors, _initial_memory(program, {}))


def _initial_memory(program: Program, inputs: Mapping[str, object]) -> dict[str, object]:
    memory: dict[str, object] = {}
    for var in program.variables:
        memory[var] = UNDEF
    memory[VAR_OUT] = ""
    memory[VAR_RETFLAG] = False
    memory[VAR_RET] = UNDEF
    memory[VAR_COND] = UNDEF
    memory.update(inputs)
    return memory


def execute(
    program: Program,
    inputs: Mapping[str, object],
    limits: ExecutionLimits | None = None,
    *,
    plan: ExecutionPlan | None = None,
    compile_cache: CompileCache | None = None,
) -> Trace:
    """Execute ``program`` on the input memory ``inputs`` and return a trace.

    Args:
        program: The program model to run.
        inputs: Initial bindings (parameters, ``$stdin``).
        limits: Step bound (the default applies when omitted).
        plan: Precompiled :class:`ExecutionPlan` for ``program``; built on
            the fly when omitted.  Callers executing one program on many
            inputs should build the plan once.
        compile_cache: Compile cache used when building a plan here
            (ignored when ``plan`` is given); defaults to the process-wide
            cache.
    """
    limits = limits or ExecutionLimits()
    if plan is None:
        plan = ExecutionPlan.for_program(program, cache=compile_cache)
    initial = dict(plan.initial_memory)
    initial.update(inputs)
    memory = TraceMemory(initial)
    # Flat evolving state for O(1) reads during evaluation; the changelog
    # above serves the lazy per-step views.
    current_memory = dict(initial)
    steps: list[TraceStep] = []
    aborted = False
    max_steps = limits.max_steps
    plan_updates = plan.updates
    plan_successors = plan.successors

    current = program.init_loc
    index = 0
    pre_view = StepMemory(memory, -1)
    while current is not None:
        if index >= max_steps:
            aborted = True
            break
        updates = plan_updates[current]
        if updates:
            # Parallel assignment: evaluate everything on the pre-state
            # before writing anything.
            computed = [(var, fn(current_memory)) for var, fn in updates]
            for var, value in computed:
                memory.write(index, var, value)
                current_memory[var] = value
        written = plan.written_vars[current]
        post_view = StepMemory(memory, index)
        steps.append(
            TraceStep(
                loc_id=current,
                pre=pre_view,
                post=post_view,
                written_vars=written,
            )
        )
        pre_view = post_view
        index += 1
        on_true, on_false, branching = plan_successors[current]
        if branching:
            current = (
                on_true if truthy(current_memory.get(VAR_COND, UNDEF)) else on_false
            )
        else:
            current = on_true

    return Trace(steps, aborted=aborted)


def execute_interpreted(
    program: Program,
    inputs: Mapping[str, object],
    limits: ExecutionLimits | None = None,
) -> Trace:
    """Reference executor: interpreted evaluation, full dict snapshots.

    This is the pre-fast-path implementation, kept as the executable
    specification of Def. 3.5: it re-walks every expression through
    :func:`~repro.interpreter.evaluator.evaluate` and snapshots the whole
    memory twice per step.  ``tests/test_exec_fastpath.py`` and
    ``benchmarks/test_exec_throughput.py`` assert that :func:`execute`
    produces field-identical traces.
    """
    limits = limits or ExecutionLimits()
    memory = _initial_memory(program, inputs)
    steps: list[TraceStep] = []
    aborted = False

    current = program.init_loc
    while current is not None:
        if len(steps) >= limits.max_steps:
            aborted = True
            break
        location = program.locations[current]
        pre = dict(memory)
        post = dict(memory)
        for var, expr in location.updates.items():
            post[var] = evaluate(expr, pre)
        steps.append(
            TraceStep(
                loc_id=current,
                pre=pre,
                post=post,
                written_vars=tuple(location.updates),
            )
        )
        memory = post
        if program.is_branching(current):
            branch = truthy(post.get(VAR_COND, UNDEF))
        else:
            branch = True
        current = program.successor(current, branch)

    return Trace(steps, aborted=aborted)


def run_on_inputs(
    program: Program,
    inputs: Iterable[Mapping[str, object]],
    limits: ExecutionLimits | None = None,
    *,
    compile_cache: CompileCache | None = None,
) -> list[Trace]:
    """Execute ``program`` on every input memory and return all traces.

    The execution plan is built once and shared across inputs.
    """
    plan = ExecutionPlan.for_program(program, cache=compile_cache)
    return [execute(program, memory, limits, plan=plan) for memory in inputs]


def returned_value(trace: Trace) -> object:
    """Return the value of the ``$ret`` variable at the end of the trace."""
    return trace.final_value(VAR_RET, UNDEF)


def printed_output(trace: Trace) -> str:
    """Return the accumulated ``$out`` output string (empty if none)."""
    value = trace.final_value(VAR_OUT, "")
    return value if isinstance(value, str) else ""


def result_matches(actual: object, expected: object) -> bool:
    """Compare an observed result against an expected one."""
    return values_equal(actual, expected)
