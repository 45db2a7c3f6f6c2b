"""Interpreter over the program model: values, operations, evaluation, execution.

Evaluation has two implementations with enforced-identical semantics: the
interpreted reference (:func:`evaluate`, :func:`execute_interpreted`) and
the compiled fast path (:mod:`repro.interpreter.compile`,
:class:`ExecutionPlan`), which :func:`execute` uses by default.
"""

from .compile import CompileCache, compile_expr, default_compile_cache
from .evaluator import evaluate, truthy
from .executor import (
    DEFAULT_MAX_STEPS,
    ExecutionLimits,
    ExecutionPlan,
    execute,
    execute_interpreted,
    printed_output,
    result_matches,
    returned_value,
    run_on_inputs,
)
from .libfuncs import LIBRARY, lookup, register
from .values import UNDEF, Undefined, is_undef, values_equal

__all__ = [
    "evaluate",
    "truthy",
    "compile_expr",
    "CompileCache",
    "default_compile_cache",
    "execute",
    "execute_interpreted",
    "ExecutionPlan",
    "run_on_inputs",
    "returned_value",
    "printed_output",
    "result_matches",
    "ExecutionLimits",
    "DEFAULT_MAX_STEPS",
    "LIBRARY",
    "lookup",
    "register",
    "UNDEF",
    "Undefined",
    "is_undef",
    "values_equal",
]
