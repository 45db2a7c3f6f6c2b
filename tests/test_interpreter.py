"""Tests for the value domain, operation library, evaluator and executor."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.interpreter.evaluator import evaluate, truthy
from repro.interpreter.executor import ExecutionLimits, execute, printed_output, returned_value
from repro.interpreter.libfuncs import LIBRARY, lookup
from repro.interpreter.values import UNDEF, is_undef, values_equal
from repro.model.expr import Const, Op, VAR_COND, VAR_OUT, VAR_RET, Var
from repro.model.program import Program


# -- values ----------------------------------------------------------------------


def test_values_equal_basic():
    assert values_equal(1, 1)
    assert values_equal(1.0, 1.0000000001)
    assert not values_equal(1, 2)
    assert values_equal([1, 2], [1, 2])
    assert not values_equal([1, 2], (1, 2))
    assert not values_equal(True, 1)
    assert values_equal(UNDEF, UNDEF)
    assert not values_equal(UNDEF, 0)
    assert values_equal("ab", "ab")


def test_undef_is_falsy_singleton():
    assert not UNDEF
    assert is_undef(UNDEF)
    assert UNDEF == UNDEF


# -- library functions -----------------------------------------------------------


def test_arithmetic_ops():
    assert LIBRARY["Add"](2, 3) == 5
    assert LIBRARY["Add"]([1], [2]) == [1, 2]
    assert LIBRARY["Add"]((1,), (2,)) == (1, 2)
    assert LIBRARY["Add"]("a", "b") == "ab"
    assert is_undef(LIBRARY["Add"]([1], 2))
    assert LIBRARY["Sub"](5, 3) == 2
    assert LIBRARY["Mult"]("ab", 2) == "abab"
    assert is_undef(LIBRARY["Div"](1, 0))
    assert LIBRARY["FloorDiv"](7, 2) == 3
    assert LIBRARY["IntDiv"](-7, 2) == -3  # C-style truncation
    assert LIBRARY["Mod"](7, 3) == 1
    assert LIBRARY["CMod"](-7, 3) == -1  # C-style remainder
    assert LIBRARY["Pow"](2, 10) == 1024
    assert LIBRARY["USub"](4) == -4


def test_comparisons_and_equality():
    assert LIBRARY["Lt"](1, 2) is True
    assert LIBRARY["GtE"](2, 2) is True
    assert LIBRARY["Eq"]([1.0], [1.0]) is True
    assert LIBRARY["NotEq"](1, 2) is True
    assert is_undef(LIBRARY["Lt"](1, "a"))


def test_sequence_ops():
    assert LIBRARY["len"]([1, 2, 3]) == 3
    assert LIBRARY["range"](3) == [0, 1, 2]
    assert LIBRARY["range"](1, 4) == [1, 2, 3]
    assert LIBRARY["range"](0, 6, 2) == [0, 2, 4]
    assert is_undef(LIBRARY["range"](0, 5, 0))
    assert LIBRARY["ListHead"]([7, 8]) == 7
    assert LIBRARY["ListTail"]([7, 8]) == [8]
    assert is_undef(LIBRARY["ListHead"]([]))
    assert LIBRARY["append"]([1], 2) == [1, 2]
    assert LIBRARY["GetElement"]([1, 2, 3], 1) == 2
    assert is_undef(LIBRARY["GetElement"]([1, 2, 3], 7))
    assert LIBRARY["AssignElement"]([1, 2, 3], 1, 9) == [1, 9, 3]
    assert is_undef(LIBRARY["AssignElement"]([1], 5, 9))
    assert LIBRARY["Slice"]([1, 2, 3, 4], 1, 3) == [2, 3]
    assert LIBRARY["TupleInit"](1, 2) == (1, 2)
    assert LIBRARY["sum"]([1, 2, 3]) == 6
    assert LIBRARY["reversed"]([1, 2]) == [2, 1]


def test_conversions_and_formatting():
    assert LIBRARY["float"](3) == 3.0
    assert LIBRARY["int"]("12") == 12
    assert is_undef(LIBRARY["int"]("abc"))
    assert LIBRARY["str"](True) == "True"
    assert LIBRARY["StrConcat"]("a", 1, "b") == "a1b"
    assert LIBRARY["StrFormat"]("%d-%d\n", 3, 4) == "3-4\n"
    assert LIBRARY["StrFormat"]("%s!", "hi") == "hi!"
    assert LIBRARY["StrFormat"]("%c", 65) == "A"
    assert is_undef(LIBRARY["StrFormat"]("%d", "oops"))
    assert is_undef(LIBRARY["StrFormat"]("%d %d", 1))


def test_lookup_unknown_returns_none():
    assert lookup("definitely-not-an-op") is None


# -- evaluator --------------------------------------------------------------------


def test_evaluate_variables_and_constants():
    assert evaluate(Var("x"), {"x": 5}) == 5
    assert is_undef(evaluate(Var("missing"), {}))
    assert evaluate(Const([1, 2]), {}) == [1, 2]


def test_evaluate_short_circuit_and_or():
    # And returns the deciding operand, like Python.
    assert evaluate(Op("And", Const(0), Var("boom")), {}) == 0
    assert evaluate(Op("Or", Const([]), Const([0.0])), {}) == [0.0]
    # The classic `result or [0.0]` idiom from Fig. 2(d).
    assert evaluate(Op("Or", Var("r"), Const([0.0])), {"r": [7.6]}) == [7.6]
    assert evaluate(Op("Or", Var("r"), Const([0.0])), {"r": []}) == [0.0]


def test_evaluate_ite_lazy():
    expr = Op("ite", Var("c"), Const(1), Op("Div", Const(1), Const(0)))
    assert evaluate(expr, {"c": True}) == 1
    assert is_undef(evaluate(expr, {"c": False}))


def test_evaluate_unknown_op_and_error_propagation():
    assert is_undef(evaluate(Op("Method_length", Var("x")), {"x": 3}))
    assert is_undef(evaluate(Op("Add", Var("x"), Const(1)), {}))  # undef operand
    assert truthy(1) and not truthy(UNDEF) and not truthy([])


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_evaluate_matches_python_arithmetic(a, b):
    memory = {"a": a, "b": b}
    assert evaluate(Op("Add", Var("a"), Var("b")), memory) == a + b
    assert evaluate(Op("Mult", Var("a"), Var("b")), memory) == a * b
    assert evaluate(Op("Lt", Var("a"), Var("b")), memory) == (a < b)


# -- executor ----------------------------------------------------------------------


def _straight_line_program() -> Program:
    program = Program("f", params=["x"])
    loc = program.add_location("entry")
    program.set_update(loc.loc_id, "y", Op("Add", Var("x"), Const(1)))
    program.set_update(loc.loc_id, VAR_RET, Op("Mult", Var("x"), Const(2)))
    program.set_successor(loc.loc_id, None, None)
    return program


def test_execute_straight_line():
    program = _straight_line_program()
    trace = execute(program, {"x": 10})
    assert len(trace) == 1
    assert trace[0].pre["x"] == 10
    assert trace[0].post["y"] == 11
    assert returned_value(trace) == 20


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


def test_execute_loop_and_trace_shape():
    program = _counting_loop_program(Op("Lt", Var("i"), Var("n")))
    trace = execute(program, {"n": 3})
    assert returned_value(trace) == 3
    assert not trace.aborted
    # entry, then (cond, body) * 3, cond, after
    assert trace.location_sequence[0] == 0
    assert trace.location_sequence[-1] == 3


def test_execute_infinite_loop_hits_step_limit():
    program = _counting_loop_program(Const(True))
    trace = execute(program, {"n": 3}, ExecutionLimits(max_steps=50))
    assert trace.aborted
    assert len(trace) == 50


def test_execute_undefined_condition_takes_false_branch():
    program = _counting_loop_program(Op("Lt", Var("i"), Var("missing")))
    trace = execute(program, {"n": 3})
    assert not trace.aborted
    assert returned_value(trace) == 0


def test_printed_output_accumulates():
    program = Program("main", params=[])
    loc = program.add_location("entry")
    program.set_update(
        loc.loc_id, VAR_OUT, Op("StrConcat", Var(VAR_OUT), Const("hello\n"))
    )
    program.set_successor(loc.loc_id, None, None)
    trace = execute(program, {})
    assert printed_output(trace) == "hello\n"
