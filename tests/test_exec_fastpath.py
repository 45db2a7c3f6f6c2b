"""Tests for the execution fast path: compiled expressions, copy-on-write
traces, the per-location step index and shared (never copied) values.

The contract under test everywhere: the compiled path is *observationally
identical* to the interpreted reference (`evaluate` /
`execute_interpreted`), field for field."""

from __future__ import annotations

import copy
import random

from repro.core.inputs import InputCase, program_traces
from repro.core.repair import find_best_repair
from repro.datasets import all_problems, generate_corpus, get_problem
from repro.engine import RepairCaches
from repro.frontend import FrontendError, parse_python_source, parse_source
from repro.interpreter.compile import CompileCache, compile_expr, default_compile_cache
from repro.interpreter.evaluator import evaluate
from repro.interpreter.executor import (
    DEFAULT_MAX_STEPS,
    ExecutionLimits,
    execute,
    execute_interpreted,
    returned_value,
)
from repro.interpreter.values import UNDEF, is_undef, values_equal
from repro.model.expr import Const, Op, VAR_COND, VAR_RET, Var, intern_expr
from repro.model.program import Program
from repro.model.trace import StepMemory, Trace, TraceMemory, TraceStep


# -- compiled evaluation == interpreted evaluation ---------------------------------


def _random_expr(rng, depth: int = 3):
    """Small random expression over a fixed vocabulary (deterministic per rng).

    Mirrors the TED property test's generator, but biased toward the
    operations with bespoke compiled forms (And/Or/ite) and toward
    list-valued constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice("abcxyz"))
        return Const(rng.choice([0, 1, 2, 2.5, True, False, None, "s", [], [1, 2]]))
    name = rng.choice(
        ["Add", "Sub", "Mult", "Div", "Eq", "Lt", "And", "Or", "ite", "Not", "len", "nope"]
    )
    arity = {"And": 2, "Or": 2, "ite": 3, "Not": 1, "len": 1}.get(
        name, rng.randint(1, 3)
    )
    return Op(name, *(_random_expr(rng, depth - 1) for _ in range(arity)))


def _random_memory(rng) -> dict:
    memory = {}
    for name in "abcxyz":
        if rng.random() < 0.8:
            memory[name] = rng.choice(
                [0, 1, 3, -2, 0.5, True, False, "t", [], [1], [2.0, 3.0], UNDEF]
            )
    return memory


def test_compiled_equals_interpreted_on_random_expressions():
    """Property (seeded, deterministic): compiling an expression and applying
    the closure agrees with a fresh interpreted evaluation on every memory."""
    rng = random.Random(20180618)
    cache = CompileCache()
    for _ in range(300):
        expr = _random_expr(rng)
        fn = cache.fn(expr)
        for _ in range(3):
            memory = _random_memory(rng)
            assert values_equal(fn(memory), evaluate(expr, memory))
            # The memoized closure and a cache-free compile agree too.
            assert values_equal(compile_expr(expr)(memory), evaluate(expr, memory))
    assert cache.misses > 0


def test_compiled_short_circuit_returns_operands():
    # And/Or return the deciding operand, not a bool — like Python.
    assert compile_expr(Op("And", Const(0), Var("boom")))({}) == 0
    assert compile_expr(Op("Or", Const([]), Const([0.0])))({}) == [0.0]
    assert compile_expr(Op("Or", Var("r"), Const([0.0])))({"r": [7.6]}) == [7.6]
    assert compile_expr(Op("Or", Var("r"), Const([0.0])))({"r": []}) == [0.0]
    assert compile_expr(Op("And", Const(2), Const(3)))({}) == 3


def test_compiled_undef_propagation():
    # UNDEF short-circuits And/Or even though it is falsy.
    assert is_undef(compile_expr(Op("And", Var("missing"), Const(1)))({}))
    assert is_undef(compile_expr(Op("Or", Var("missing"), Const(1)))({}))
    # ite is lazy: the untaken branch is never evaluated.
    lazy = Op("ite", Var("c"), Const(1), Op("Div", Const(1), Const(0)))
    assert compile_expr(lazy)({"c": True}) == 1
    assert is_undef(compile_expr(lazy)({"c": False}))
    assert is_undef(compile_expr(lazy)({}))  # undefined condition
    # Generic ops: first-UNDEF-wins, errors map to ⊥, unknown ops are ⊥.
    assert is_undef(compile_expr(Op("Add", Var("x"), Const(1)))({}))
    assert is_undef(compile_expr(Op("Div", Const(1), Const(0)))({}))
    assert is_undef(compile_expr(Op("Method_length", Var("x")))({"x": 3}))


def test_compile_cache_counters_and_sharing():
    cache = CompileCache()
    expr = intern_expr(Op("Add", Var("x"), Const(1)))
    fn = cache.fn(expr)
    assert cache.fn(expr) is fn
    # A structurally equal, non-interned duplicate also hits.
    assert cache.fn(Op("Add", Var("x"), Const(1))) is fn
    assert cache.counters() == {"hits": 2, "misses": 1, "nodes_compiled": 3}
    assert cache.entry_counts()["compiled_exprs"] >= 1

    # A new tree embedding an already-compiled subtree only pays for the
    # new nodes: nodes_compiled counts work done, not tree sizes.
    assert cache.fn(Op("Mult", Op("Add", Var("x"), Const(1)), Const(2)))({"x": 2}) == 6
    assert cache.counters() == {"hits": 2, "misses": 2, "nodes_compiled": 5}

    disabled = CompileCache(enabled=False)
    disabled.fn(expr)
    disabled.fn(expr)
    assert disabled.counters() == {"hits": 0, "misses": 2, "nodes_compiled": 6}
    assert disabled.entry_counts() == {"compiled_exprs": 0}


def test_unknown_op_compiled_before_registration_sees_late_register():
    """The registry is open (libfuncs.register): a closure compiled while an
    op was unknown must pick the op up once registered, like the interpreter."""
    from repro.interpreter.libfuncs import LIBRARY, register

    name = "test_exec_fastpath_late_op"
    assert name not in LIBRARY
    expr = Op(name, Var("x"))
    fn = compile_expr(expr)
    try:
        assert is_undef(fn({"x": 4}))
        assert is_undef(evaluate(expr, {"x": 4}))
        register(name, lambda x: x * 10)
        assert fn({"x": 4}) == 40  # the already-compiled closure re-resolves
        assert evaluate(expr, {"x": 4}) == 40
        # Arguments still propagate UNDEF before the late lookup.
        assert is_undef(fn({}))
    finally:
        del LIBRARY[name]


def test_repair_caches_own_a_compile_cache():
    caches = RepairCaches()
    assert caches.compiled.enabled
    assert RepairCaches(enabled=False).compiled.enabled is False
    assert "compiled_exprs" in caches.entry_counts()


# -- compiled executor == interpreted executor -------------------------------------


def _counting_loop_program(limit_expr) -> Program:
    program = Program("count", params=["n"])
    entry = program.add_location("entry")
    cond = program.add_location("loop-cond")
    body = program.add_location("loop-body")
    after = program.add_location("after-loop")
    program.set_update(entry.loc_id, "i", Const(0))
    program.set_update(cond.loc_id, VAR_COND, limit_expr)
    program.set_update(body.loc_id, "i", Op("Add", Var("i"), Const(1)))
    program.set_update(after.loc_id, VAR_RET, Var("i"))
    program.set_successor(entry.loc_id, cond.loc_id, cond.loc_id)
    program.set_successor(cond.loc_id, body.loc_id, after.loc_id)
    program.set_successor(body.loc_id, cond.loc_id, cond.loc_id)
    program.set_successor(after.loc_id, None, None)
    return program


def assert_traces_identical(fast: Trace, reference: Trace) -> None:
    """Field-for-field equality of two traces (loc ids, pre/post, aborted)."""
    assert fast.aborted == reference.aborted
    assert fast.location_sequence == reference.location_sequence
    for fast_step, ref_step in zip(fast.steps, reference.steps):
        assert dict(fast_step.pre) == dict(ref_step.pre)
        assert dict(fast_step.post) == dict(ref_step.post)
        assert fast_step == ref_step  # TraceStep.__eq__ across representations


def test_execute_matches_interpreted_on_loop():
    program = _counting_loop_program(Op("Lt", Var("i"), Var("n")))
    for n in (0, 3, 7):
        assert_traces_identical(
            execute(program, {"n": n}), execute_interpreted(program, {"n": n})
        )
    assert returned_value(execute(program, {"n": 3})) == 3


def test_execute_matches_interpreted_on_aborted_run():
    program = _counting_loop_program(Const(True))
    limits = ExecutionLimits(max_steps=50)
    fast = execute(program, {"n": 3}, limits)
    assert fast.aborted and len(fast) == 50
    assert_traces_identical(fast, execute_interpreted(program, {"n": 3}, limits))


def test_execute_matches_interpreted_on_real_corpus():
    """Every generated attempt (correct and incorrect) of a real problem
    executes identically under both paths, on every case."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 6, 6, seed=7)
    for source in corpus.correct_sources + corpus.incorrect_sources:
        program = parse_python_source(source)
        compiled = program_traces(program, problem.cases)
        for trace, case in zip(compiled, problem.cases):
            reference = execute_interpreted(program, case.memory_for(program))
            assert_traces_identical(trace, reference)


#: Runaway loops: the counter is never incremented, so every case with a
#: non-empty argument runs to the step bound while a value keeps growing.
RUNAWAY_SOURCES = {
    "oddTuples": (
        "def oddTuples(aTup):\n"
        "    ans = ()\n"
        "    count = 0\n"
        "    while count < len(aTup):\n"
        "        ans = ans + (aTup[count],)\n"
        "    return ans\n"
    ),
    "derivatives": (
        "def computeDeriv(poly):\n"
        "    result = []\n"
        "    i = 0\n"
        "    while i < len(poly):\n"
        "        result.append(float(i * poly[i]))\n"
        "    return result\n"
    ),
}


#: List edits of every kind the frontend emits (slice, element update,
#: concatenation, append); a library operation that edited its argument in
#: place would change a value an earlier step recorded.
LIST_EDITS_SOURCE = (
    "def computeDeriv(poly):\n"
    "    result = poly[1:]\n"
    "    for i in range(len(result)):\n"
    "        result[i] = result[i] * (i + 1)\n"
    "    result = result + [0.0]\n"
    "    result.append(1.0)\n"
    "    return result[:-2]\n"
)


def test_execute_matches_interpreted_on_runaway_loops():
    for name, source in RUNAWAY_SOURCES.items():
        # The first three cases hold an empty argument and two that loop.
        cases = get_problem(name).cases[:3]
        program = parse_python_source(source)
        compiled = program_traces(program, cases)
        for trace, case in zip(compiled, cases):
            reference = execute_interpreted(program, case.memory_for(program))
            assert trace.aborted == (len(case.args[0]) > 0)
            if trace.aborted:
                assert len(trace) == DEFAULT_MAX_STEPS
            assert_traces_identical(trace, reference)


def test_execute_shares_input_values():
    """Inputs enter the trace as the objects given, not as copies."""
    program = parse_python_source("def f(xs):\n    return len(xs)\n")
    inputs = {"xs": [1, [2, 3]]}
    for trace in (execute(program, inputs), execute_interpreted(program, inputs)):
        assert trace.steps[0].pre["xs"] is inputs["xs"]


def _constants(program: Program) -> list[Const]:
    return [
        node
        for location in program.locations.values()
        for expr in location.updates.values()
        for node in expr.walk()
        if isinstance(node, Const)
    ]


def _assert_steps_self_consistent(program: Program, trace: Trace) -> None:
    """Each recorded post-state is still what the step's location computes
    from a deep copy of its recorded pre-state, so no later step changed a
    value an earlier one recorded."""
    for step in trace.steps:
        updates = program.locations[step.loc_id].updates
        for var, expr in updates.items():
            reads = {name: copy.deepcopy(step.pre.get(name)) for name in expr.variables()}
            assert values_equal(evaluate(expr, reads), step.post[var]), (var, expr)


def test_executors_never_mutate_shared_values():
    """The sharing contract behind uncopied traces (repro.interpreter.values):
    on a small corpus of every registered problem plus the runaway loops
    and a program of list edits, running both executors leaves the inputs,
    the programs' constants and every recorded step value unchanged."""
    limits = ExecutionLimits(max_steps=400)
    checked = 0
    for problem in all_problems():
        corpus = generate_corpus(problem, 3, 3, seed=5)
        sources = corpus.correct_sources + corpus.incorrect_sources
        if problem.name in RUNAWAY_SOURCES:
            sources.append(RUNAWAY_SOURCES[problem.name])
        if problem.name == "derivatives":
            sources.append(LIST_EDITS_SOURCE)
        for source in sources:
            try:
                program = parse_source(source, language=problem.language, entry=problem.entry)
            except FrontendError:
                continue
            constants = _constants(program)
            constant_values = copy.deepcopy([node.value for node in constants])
            for case in problem.cases:
                inputs = case.memory_for(program)
                input_values = copy.deepcopy(inputs)
                for run in (execute, execute_interpreted):
                    trace = run(program, inputs, limits)
                    _assert_steps_self_consistent(program, trace)
                    assert inputs == input_values
                    checked += len(trace)
            assert [node.value for node in constants] == constant_values
    assert checked > 0


def test_cow_steps_record_only_written_vars():
    program = _counting_loop_program(Op("Lt", Var("i"), Var("n")))
    trace = execute(program, {"n": 2})
    universe = len(dict(trace.steps[0].pre))
    for step in trace.steps:
        assert step.written_vars is not None
        assert len(step.written_vars) <= 1  # each location writes one var here
        assert len(dict(step.post)) == universe
    # pre of step k+1 sees exactly what post of step k sees.
    for before, after in zip(trace.steps, trace.steps[1:]):
        assert dict(before.post) == dict(after.pre)


def test_step_memory_view_behaves_like_dict():
    memory = TraceMemory({"x": 1, "y": UNDEF})
    memory.write(0, "x", 2)
    memory.write(1, "z", 9)
    view0, view1 = StepMemory(memory, 0), StepMemory(memory, 1)
    assert view0["x"] == 2 and view0.get("y") is UNDEF
    assert view0.get("z", "absent") == "absent"
    assert "z" not in view0 and "z" in view1
    assert dict(view1) == {"x": 2, "y": UNDEF, "z": 9}
    assert view1 == {"x": 2, "y": UNDEF, "z": 9}  # mapping equality with dicts
    assert {"x": 2, "y": UNDEF, "z": 9} == view1
    assert view0 != view1
    assert len(view0) == 2 and sorted(view0) == ["x", "y"]


def test_steps_at_uses_shared_index():
    steps = [
        TraceStep(loc_id=0, pre={}, post={"x": 1}),
        TraceStep(loc_id=1, pre={"x": 1}, post={"x": 2}),
        TraceStep(loc_id=1, pre={"x": 2}, post={"x": 3}),
    ]
    trace = Trace(steps)
    assert trace.steps_at(1) == [steps[1], steps[2]]
    assert trace.steps_at(1) is trace.steps_at(1)  # built once, shared
    assert trace.steps_at(99) == []


# -- compiled evaluation threaded through the repair layers -------------------------


def test_candidate_screening_leaves_the_compile_cache_alone():
    """Candidate screening (Def. 4.5) evaluates through the interpreter:
    find_best_repair over already-traced clusters leaves the caches'
    compile counters unchanged, while ``caches.traces`` on a program not
    seen before still compiles its execution plan."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 6, seed=11)
    correct = [parse_python_source(s) for s in corpus.correct_sources]
    from repro.core.clustering import cluster_programs

    clusters = cluster_programs(correct, problem.cases).clusters
    attempts = [parse_python_source(s) for s in corpus.incorrect_sources]

    caches = RepairCaches()
    before = caches.compiled.counters()
    repairs = [find_best_repair(p, clusters, caches=caches) for p in attempts]
    assert any(repair is not None for repair in repairs)
    assert caches.compiled.counters() == before

    caches.traces(attempts[0], problem.cases)
    assert caches.compiled.counters()["misses"] > before["misses"]


def test_default_compile_cache_is_shared():
    assert default_compile_cache() is default_compile_cache()


def test_engine_traces_still_cached_and_equal():
    """RepairCaches.traces routes through the compiled executor and still
    returns the same object on a hit."""
    cases = [InputCase(args=(3,), expected_return=6)]
    source = "def f(n):\n    return n * 2\n"
    program = parse_python_source(source)
    caches = RepairCaches()
    first = caches.traces(program, cases)
    assert caches.traces(program, cases) is first
    assert_traces_identical(first[0], execute_interpreted(program, cases[0].memory_for(program)))
