"""Expression evaluation (paper Def. 3.4).

:func:`evaluate` maps an expression and a memory to a value in the
computation domain.  ``And``/``Or`` follow Python's short-circuit semantics
(returning an operand, not necessarily a bool), ``ite`` evaluates lazily, and
any error or unknown operation yields the undefined value.
"""

from __future__ import annotations

from typing import Mapping

from ..model.expr import Const, Expr, Op, Var
from .libfuncs import lookup
from .values import UNDEF, is_undef

__all__ = ["evaluate", "truthy"]


def truthy(value: object) -> bool:
    """Truth value of a domain value; the undefined value is falsy."""
    if is_undef(value):
        return False
    return bool(value)


def evaluate(expr: Expr, memory: Mapping[str, object]) -> object:
    """Evaluate ``expr`` on ``memory``; errors become ``UNDEF``."""
    if isinstance(expr, Var):
        return memory.get(expr.name, UNDEF)
    if isinstance(expr, Const):
        return expr.value
    if not isinstance(expr, Op):  # pragma: no cover - defensive
        return UNDEF

    name = expr.name
    args = expr.args

    # Lazy / short-circuit operations.
    if name == "And" and len(args) == 2:
        left = evaluate(args[0], memory)
        if is_undef(left):
            return UNDEF
        if not truthy(left):
            return left
        return evaluate(args[1], memory)
    if name == "Or" and len(args) == 2:
        left = evaluate(args[0], memory)
        if is_undef(left):
            return UNDEF
        if truthy(left):
            return left
        return evaluate(args[1], memory)
    if name == "ite" and len(args) == 3:
        cond = evaluate(args[0], memory)
        if is_undef(cond):
            return UNDEF
        return evaluate(args[1] if truthy(cond) else args[2], memory)

    values = []
    for arg in args:
        value = evaluate(arg, memory)
        if is_undef(value):
            return UNDEF
        values.append(value)

    fn = lookup(name)
    if fn is None:
        return UNDEF
    try:
        return fn(*values)
    except Exception:  # noqa: BLE001 - student code errors map to ⊥
        return UNDEF
