"""The computation domain (paper Def. 3.3).

Values are ordinary Python objects (ints, floats, bools, strings, lists,
tuples, ``None``) plus the distinguished undefined value ``UNDEF`` (the
paper's ⊥).  All operations in :mod:`repro.interpreter.libfuncs` are
*functional*: they never mutate their arguments, they return fresh values, and
they return ``UNDEF`` whenever real Python would raise.

A value is therefore immutable once built, lists included, and the
executors share value objects instead of copying them: a trace step, the
input binding it came from and the ``Const`` it was read from may all hold
the same list.  Nothing in the interpreter, or in any consumer of traces,
may mutate a value in place; ``tests/test_exec_fastpath.py`` checks this
contract over every registered problem.

Value equality (:func:`values_equal`) is what "take the same values" means for
dynamic equivalence: exact for discrete types, tolerance-based for floats, and
structural for sequences.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["UNDEF", "Undefined", "is_undef", "values_equal"]

#: Relative tolerance used when comparing floating point trace values.
FLOAT_REL_TOL = 1e-6
FLOAT_ABS_TOL = 1e-9


class Undefined:
    """Singleton undefined value (the paper's ⊥)."""

    _instance: "Undefined | None" = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Undefined)

    def __hash__(self) -> int:
        return hash("⊥-undefined")


UNDEF = Undefined()


def is_undef(value: object) -> bool:
    """Return ``True`` when ``value`` is the undefined value."""
    return isinstance(value, Undefined)


def values_equal(left: object, right: object) -> bool:
    """Structural equality over the computation domain.

    * ``UNDEF`` equals only ``UNDEF``;
    * bools never equal non-bools (so ``True != 1`` even though Python says
      otherwise) -- students returning ``1`` instead of ``True`` must not be
      considered equivalent;
    * ints and floats compare numerically, with a small tolerance when either
      side is a float;
    * lists equal only lists, tuples only tuples, element-wise.
    """
    if is_undef(left) or is_undef(right):
        return is_undef(left) and is_undef(right)
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        if isinstance(left, float) or isinstance(right, float):
            return abs(left - right) <= max(
                FLOAT_ABS_TOL, FLOAT_REL_TOL * max(abs(left), abs(right))
            )
        return left == right
    if isinstance(left, list) or isinstance(right, list):
        if not (isinstance(left, list) and isinstance(right, list)):
            return False
        return _sequences_equal(left, right)
    if isinstance(left, tuple) or isinstance(right, tuple):
        if not (isinstance(left, tuple) and isinstance(right, tuple)):
            return False
        return _sequences_equal(left, right)
    return type(left) is type(right) and left == right


def _sequences_equal(left: Iterable[object], right: Iterable[object]) -> bool:
    left_items = list(left)
    right_items = list(right)
    if len(left_items) != len(right_items):
        return False
    return all(values_equal(a, b) for a, b in zip(left_items, right_items))

