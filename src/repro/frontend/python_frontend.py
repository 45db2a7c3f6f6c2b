"""Python front-end: translate introductory-level Python into the model.

The translation follows §3 of the paper:

* loop-free statement sequences are collapsed into a single location whose
  updates form one parallel assignment (sequential statements are composed by
  substituting previously assigned expressions);
* loop-free ``if`` statements are converted to ``ite`` expressions;
* loops produce the ``before → cond → body → after`` location structure, with
  ``for`` loops desugared through a synthetic iterator variable exactly as in
  the paper's running example;
* early ``return``, ``break`` and ``continue`` are modelled with synthetic
  flag variables and guard expressions, which the simplifier folds away
  whenever they are statically constant.

Constructs outside the supported subset raise
:class:`~repro.frontend.errors.UnsupportedFeatureError`; syntactically invalid
source raises :class:`~repro.frontend.errors.ParseError`.  Both categories are
counted by the evaluation harness, mirroring the failure analysis in §6.2.
"""

from __future__ import annotations

import ast
from typing import Sequence

from ..interpreter.libfuncs import register
from ..model.expr import (
    Const,
    Expr,
    Op,
    VAR_COND,
    VAR_OUT,
    VAR_RET,
    VAR_RETFLAG,
    Var,
    conjunction,
    negation,
)
from ..model.program import END, Program
from ..model.simplify import simplify
from .errors import ParseError, UnsupportedFeatureError

__all__ = ["parse_python_source", "parse_python_function"]


# ``a[::2]``-style slices need a 4-argument operation that the core library
# does not define; register it here so the front-end stays self-contained.
def _slice_step(seq: object, lo: object, hi: object, step: object) -> object:
    from ..interpreter.values import UNDEF, is_undef

    if not isinstance(seq, (list, tuple, str)):
        return UNDEF
    low = None if lo is None or is_undef(lo) else lo
    high = None if hi is None or is_undef(hi) else hi
    stride = None if step is None or is_undef(step) else step
    try:
        result = seq[low:high:stride]
    except (TypeError, ValueError):
        return UNDEF
    return list(result) if isinstance(seq, list) else result


def _list_cast(value: object) -> object:
    from ..interpreter.values import UNDEF

    if isinstance(value, (list, tuple, str)):
        return list(value)
    return UNDEF


def _tuple_cast(value: object) -> object:
    from ..interpreter.values import UNDEF

    if isinstance(value, (list, tuple, str)):
        return tuple(value)
    return UNDEF


register("SliceStep", _slice_step)
register("list", _list_cast)
register("tuple", _tuple_cast)


_BINOP_NAMES = {
    ast.Add: "Add",
    ast.Sub: "Sub",
    ast.Mult: "Mult",
    ast.Div: "Div",
    ast.FloorDiv: "FloorDiv",
    ast.Mod: "Mod",
    ast.Pow: "Pow",
}

_CMPOP_NAMES = {
    ast.Eq: "Eq",
    ast.NotEq: "NotEq",
    ast.Lt: "Lt",
    ast.LtE: "LtE",
    ast.Gt: "Gt",
    ast.GtE: "GtE",
    ast.In: "In",
    ast.NotIn: "NotIn",
}

_UNARYOP_NAMES = {
    ast.USub: "USub",
    ast.UAdd: "UAdd",
    ast.Not: "Not",
}

#: Calls to these names translate directly to library operations.
_KNOWN_CALLS = {
    "len",
    "range",
    "xrange",
    "float",
    "int",
    "str",
    "bool",
    "abs",
    "round",
    "max",
    "min",
    "sum",
    "sorted",
    "reversed",
    "enumerate",
    "zip",
    "pow",
    "list",
    "tuple",
    "append",
}


def _contains_loop(statements: Sequence[ast.stmt]) -> bool:
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, (ast.For, ast.While)):
                return True
    return False


def _contains(statements: Sequence[ast.stmt], kinds: tuple[type, ...]) -> bool:
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, kinds):
                # Nested function bodies are their own scope; a return there
                # does not affect this function's control flow (they are
                # rejected elsewhere anyway).
                return True
    return False


class _LoopContext:
    """Book-keeping for an enclosing loop during translation."""

    def __init__(self, index: int, has_break: bool, has_continue: bool) -> None:
        self.break_var = f"$brk{index}"
        self.cont_var = f"$cont{index}"
        self.has_break = has_break
        self.has_continue = has_continue
        #: Whether a break/continue may already be set when a *new* location
        #: inside this loop's body starts.
        self.break_may_be_set = False
        self.cont_may_be_set = False


class _BlockBuilder:
    """Accumulates the parallel assignment of a single location.

    ``seeds`` holds values that are statically known when the location is
    entered (e.g. "the return flag is still False"); they participate in
    substitution but are not emitted as updates.
    """

    def __init__(
        self,
        translator: "_Translator",
        loc_id: int,
        seeds: dict[str, Expr] | None = None,
        loops: list[_LoopContext] | None = None,
    ) -> None:
        self.translator = translator
        self.loc_id = loc_id
        self.updates: dict[str, Expr] = {}
        self.seeds: dict[str, Expr] = dict(seeds or {})
        self.loops: list[_LoopContext] = list(loops or [])

    # -- substitution --------------------------------------------------------

    def current(self, var: str) -> Expr:
        if var in self.updates:
            return self.updates[var]
        if var in self.seeds:
            return self.seeds[var]
        return Var(var)

    def substitution(self) -> dict[str, Expr]:
        mapping = dict(self.seeds)
        mapping.update(self.updates)
        return mapping

    # -- guards ----------------------------------------------------------------

    def guard(self) -> Expr:
        """Condition under which the next statement actually executes."""
        terms: list[Expr] = [negation(self.current(VAR_RETFLAG))]
        if self.loops:
            innermost = self.loops[-1]
            if innermost.has_break:
                terms.append(negation(self.current(innermost.break_var)))
            if innermost.has_continue:
                terms.append(negation(self.current(innermost.cont_var)))
        return simplify(conjunction(terms))

    # -- assignment --------------------------------------------------------------

    def assign_expr(self, var: str, expr: Expr, *, guarded: bool = True) -> None:
        value = expr
        if guarded:
            guard = self.guard()
            if guard != Const(True):
                value = Op("ite", guard, value, self.current(var))
        self.updates[var] = simplify(value)

    def branch_copy(self) -> "_BlockBuilder":
        copy = _BlockBuilder(self.translator, self.loc_id, self.seeds, self.loops)
        copy.updates = dict(self.updates)
        return copy

    # -- expression conversion -----------------------------------------------

    def convert(self, node: ast.expr) -> Expr:
        """Convert a Python expression AST node, substituting current values."""
        raw = self.translator.convert_expression(node)
        return simplify(raw.substitute_vars(self.substitution()))


class _Translator:
    """Translates one Python function definition into a :class:`Program`."""

    def __init__(self, func: ast.FunctionDef, source: str) -> None:
        self.func = func
        self.source = source
        self.program = Program(
            func.name,
            params=[arg.arg for arg in func.args.args],
            source=source,
            language="python",
        )
        self.may_have_returned = False
        self._loop_counter = 0
        self._iter_counter = 0

    # -- public entry -----------------------------------------------------------

    def translate(self) -> Program:
        if self.func.args.vararg or self.func.args.kwarg or self.func.args.kwonlyargs:
            raise UnsupportedFeatureError("varargs/keyword-only parameters", self.func.lineno)
        entry = self.program.add_location("entry", line=self.func.lineno)
        builder = self._new_builder(entry.loc_id, loops=[])
        exit_builder = self._translate_statements(self.func.body, builder)
        self._flush(exit_builder)
        self.program.set_successor(exit_builder.loc_id, END, END)
        self.program.prune_unread_flags()
        return self.program

    # -- builders and helpers ---------------------------------------------------

    def _new_builder(
        self,
        loc_id: int,
        loops: list[_LoopContext],
        *,
        may_have_returned: bool | None = None,
        extra_seeds: dict[str, Expr] | None = None,
    ) -> _BlockBuilder:
        seeds: dict[str, Expr] = {}
        returned = self.may_have_returned if may_have_returned is None else may_have_returned
        if not returned:
            seeds[VAR_RETFLAG] = Const(False)
        for ctx in loops:
            if ctx.has_break and not ctx.break_may_be_set:
                seeds[ctx.break_var] = Const(False)
            if ctx.has_continue and not ctx.cont_may_be_set:
                seeds[ctx.cont_var] = Const(False)
        if extra_seeds:
            seeds.update(extra_seeds)
        return _BlockBuilder(self, loc_id, seeds=seeds, loops=loops)

    def _flush(self, builder: _BlockBuilder) -> None:
        location = self.program.locations[builder.loc_id]
        for var, expr in builder.updates.items():
            if expr == Var(var):
                continue
            location.updates[var] = expr

    # -- statement translation -----------------------------------------------

    def _translate_statements(
        self, statements: Sequence[ast.stmt], builder: _BlockBuilder
    ) -> _BlockBuilder:
        """Translate statements, returning the builder of the final location."""
        current = builder
        for statement in statements:
            if isinstance(statement, (ast.For, ast.While)):
                current = self._translate_loop(statement, current)
            elif isinstance(statement, ast.If) and _contains_loop(
                list(statement.body) + list(statement.orelse)
            ):
                current = self._translate_branching_if(statement, current)
            else:
                self._translate_simple(statement, current)
        return current

    def _translate_simple(self, statement: ast.stmt, builder: _BlockBuilder) -> None:
        if isinstance(statement, ast.Assign):
            value = builder.convert(statement.value)
            for target in statement.targets:
                self._assign_target(builder, target, value)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is None:
                return
            value = builder.convert(statement.value)
            self._assign_target(builder, statement.target, value)
        elif isinstance(statement, ast.AugAssign):
            self._translate_augassign(statement, builder)
        elif isinstance(statement, ast.Return):
            value = (
                builder.convert(statement.value)
                if statement.value is not None
                else Const(None)
            )
            builder.assign_expr(VAR_RET, value)
            builder.assign_expr(VAR_RETFLAG, Const(True))
            self.may_have_returned = True
        elif isinstance(statement, ast.If):
            self._translate_loopfree_if(statement, builder)
        elif isinstance(statement, ast.Expr):
            self._translate_expression_statement(statement, builder)
        elif isinstance(statement, ast.Pass):
            return
        elif isinstance(statement, ast.Break):
            if not builder.loops:
                raise UnsupportedFeatureError("break outside loop", statement.lineno)
            ctx = builder.loops[-1]
            builder.assign_expr(ctx.break_var, Const(True))
            ctx.break_may_be_set = True
        elif isinstance(statement, ast.Continue):
            if not builder.loops:
                raise UnsupportedFeatureError("continue outside loop", statement.lineno)
            ctx = builder.loops[-1]
            builder.assign_expr(ctx.cont_var, Const(True))
            ctx.cont_may_be_set = True
        elif isinstance(statement, (ast.Global, ast.Nonlocal)):
            raise UnsupportedFeatureError("global/nonlocal", statement.lineno)
        elif isinstance(statement, ast.FunctionDef):
            raise UnsupportedFeatureError("nested function definition", statement.lineno)
        elif isinstance(statement, (ast.Import, ast.ImportFrom)):
            # Imports inside the function body are ignored (students import
            # ``math`` etc.); module-level imports never reach the translator.
            return
        elif isinstance(statement, ast.Assert):
            return
        else:
            raise UnsupportedFeatureError(
                type(statement).__name__, getattr(statement, "lineno", None)
            )

    def _translate_augassign(self, statement: ast.AugAssign, builder: _BlockBuilder) -> None:
        op_name = _BINOP_NAMES.get(type(statement.op))
        if op_name is None:
            raise UnsupportedFeatureError(
                f"augmented assignment {type(statement.op).__name__}", statement.lineno
            )
        value = builder.convert(statement.value)
        target = statement.target
        if isinstance(target, ast.Name):
            current = builder.current(target.id)
            builder.assign_expr(target.id, Op(op_name, current, value))
        elif isinstance(target, ast.Subscript):
            base, index = self._subscript_parts(builder, target)
            if not isinstance(target.value, ast.Name):
                raise UnsupportedFeatureError("augmented subscript target", statement.lineno)
            old = Op("GetElement", base, index)
            builder.assign_expr(
                target.value.id,
                Op("AssignElement", base, index, Op(op_name, old, value)),
            )
        else:
            raise UnsupportedFeatureError("augmented assignment target", statement.lineno)

    def _translate_expression_statement(
        self, statement: ast.Expr, builder: _BlockBuilder
    ) -> None:
        value = statement.value
        if isinstance(value, ast.Call):
            call = value
            if isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name):
                obj = call.func.value.id
                method = call.func.attr
                args = [builder.convert(a) for a in call.args]
                current = builder.current(obj)
                if method == "append" and len(args) == 1:
                    builder.assign_expr(obj, Op("append", current, args[0]))
                    return
                if method == "extend" and len(args) == 1:
                    builder.assign_expr(obj, Op("Add", current, args[0]))
                    return
                if method == "insert" and len(args) == 2:
                    builder.assign_expr(
                        obj,
                        Op(
                            "Add",
                            Op("Add", Op("Slice", current, Const(None), args[0]),
                               Op("ListInit", args[1])),
                            Op("Slice", current, args[0], Const(None)),
                        ),
                    )
                    return
                if method == "sort" and not args:
                    builder.assign_expr(obj, Op("sorted", current))
                    return
                if method == "reverse" and not args:
                    builder.assign_expr(obj, Op("reversed", current))
                    return
                # Unknown method used for its side effect: evaluates to ⊥ and
                # overwrites the object, mirroring "the student called
                # something that does not work".
                builder.assign_expr(obj, Op(f"Method_{method}", current, *args))
                return
            if isinstance(call.func, ast.Name) and call.func.id == "print":
                args = [builder.convert(a) for a in call.args]
                self._emit_print(builder, args)
                return
        # Any other expression statement has no observable effect; drop it.
        return

    def _emit_print(self, builder: _BlockBuilder, args: list[Expr]) -> None:
        pieces: list[Expr] = [builder.current(VAR_OUT)]
        for index, arg in enumerate(args):
            if index:
                pieces.append(Const(" "))
            pieces.append(Op("str", arg))
        pieces.append(Const("\n"))
        builder.assign_expr(VAR_OUT, Op("StrConcat", *pieces))

    def _assign_target(self, builder: _BlockBuilder, target: ast.expr, value: Expr) -> None:
        if isinstance(target, ast.Name):
            builder.assign_expr(target.id, value)
            return
        if isinstance(target, ast.Subscript):
            base, index = self._subscript_parts(builder, target)
            if not isinstance(target.value, ast.Name):
                raise UnsupportedFeatureError("subscript assignment target", target.lineno)
            builder.assign_expr(
                target.value.id, Op("AssignElement", base, index, value)
            )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for position, element in enumerate(target.elts):
                self._assign_target(
                    builder, element, Op("GetElement", value, Const(position))
                )
            return
        raise UnsupportedFeatureError(
            f"assignment target {type(target).__name__}", getattr(target, "lineno", None)
        )

    def _subscript_parts(
        self, builder: _BlockBuilder, node: ast.Subscript
    ) -> tuple[Expr, Expr]:
        base = builder.convert(node.value)
        if isinstance(node.slice, ast.Slice):
            raise UnsupportedFeatureError("slice assignment", node.lineno)
        index = builder.convert(node.slice)
        return base, index

    # -- loop-free if ------------------------------------------------------------

    def _translate_loopfree_if(self, statement: ast.If, builder: _BlockBuilder) -> None:
        condition = builder.convert(statement.test)
        guard = builder.guard()

        then_builder = builder.branch_copy()
        self._translate_loopfree_block(statement.body, then_builder)
        else_builder = builder.branch_copy()
        if statement.orelse:
            self._translate_loopfree_block(statement.orelse, else_builder)

        # Sorted: set order would make the stores depend on string hashing.
        for var in sorted(set(then_builder.updates) | set(else_builder.updates)):
            then_value = then_builder.current(var)
            else_value = else_builder.current(var)
            if then_value == else_value:
                merged = then_value
            else:
                merged = Op("ite", condition, then_value, else_value)
            if guard != Const(True):
                merged = Op("ite", guard, merged, builder.current(var))
            builder.updates[var] = simplify(merged)

    def _translate_loopfree_block(
        self, statements: Sequence[ast.stmt], builder: _BlockBuilder
    ) -> None:
        for statement in statements:
            if isinstance(statement, (ast.For, ast.While)):  # pragma: no cover
                raise UnsupportedFeatureError("loop in loop-free region", statement.lineno)
            self._translate_simple(statement, builder)

    # -- branching if (contains loops) ------------------------------------------

    def _translate_branching_if(
        self, statement: ast.If, builder: _BlockBuilder
    ) -> _BlockBuilder:
        self._flush(builder)
        cond_loc = self.program.add_location("if-cond", line=statement.lineno)
        self.program.set_successor(builder.loc_id, cond_loc.loc_id, cond_loc.loc_id)

        cond_builder = self._new_builder(cond_loc.loc_id, builder.loops)
        condition = cond_builder.convert(statement.test)
        guard = cond_builder.guard()
        cond_builder.updates[VAR_COND] = simplify(
            conjunction([guard, condition]) if guard != Const(True) else condition
        )
        self._flush(cond_builder)

        then_loc = self.program.add_location("if-then", line=statement.lineno)
        else_loc = self.program.add_location("if-else", line=statement.lineno)
        self.program.set_successor(cond_loc.loc_id, then_loc.loc_id, else_loc.loc_id)

        then_builder = self._new_builder(then_loc.loc_id, builder.loops)
        then_exit = self._translate_statements(statement.body, then_builder)
        self._flush(then_exit)

        else_builder = self._new_builder(else_loc.loc_id, builder.loops)
        else_exit = self._translate_statements(statement.orelse, else_builder)
        self._flush(else_exit)

        join_loc = self.program.add_location("if-join", line=statement.lineno)
        self.program.set_successor(then_exit.loc_id, join_loc.loc_id, join_loc.loc_id)
        self.program.set_successor(else_exit.loc_id, join_loc.loc_id, join_loc.loc_id)
        return self._new_builder(join_loc.loc_id, builder.loops)

    # -- loops -----------------------------------------------------------------

    def _translate_loop(
        self, statement: ast.For | ast.While, builder: _BlockBuilder
    ) -> _BlockBuilder:
        if getattr(statement, "orelse", None):
            raise UnsupportedFeatureError("loop else clause", statement.lineno)

        body = statement.body
        has_break = _contains(body, (ast.Break,))
        has_continue = _contains(body, (ast.Continue,))
        body_returns = _contains(body, (ast.Return,))

        self._loop_counter += 1
        ctx = _LoopContext(self._loop_counter, has_break, has_continue)

        iterator_var: str | None = None
        if isinstance(statement, ast.For):
            self._iter_counter += 1
            iterator_var = f"$iter{self._iter_counter}"
            builder.assign_expr(iterator_var, builder.convert(statement.iter))
        if has_break:
            builder.assign_expr(ctx.break_var, Const(False), guarded=False)

        self._flush(builder)
        cond_loc = self.program.add_location("loop-cond", line=statement.lineno)
        self.program.set_successor(builder.loc_id, cond_loc.loc_id, cond_loc.loc_id)

        outer_loops = builder.loops
        loops_with_ctx = outer_loops + [ctx]

        # The condition location may be revisited after the body has set the
        # return flag, so the flag must be treated as unknown there whenever
        # the body can return.
        cond_builder = self._new_builder(
            cond_loc.loc_id,
            outer_loops,
            may_have_returned=self.may_have_returned or body_returns,
        )
        guard_terms: list[Expr] = [negation(cond_builder.current(VAR_RETFLAG))]
        if has_break:
            guard_terms.append(negation(Var(ctx.break_var)))
        if isinstance(statement, ast.For):
            raw_condition: Expr = Op("Gt", Op("len", Var(iterator_var)), Const(0))
        else:
            raw_condition = cond_builder.convert(statement.test)
        cond_builder.updates[VAR_COND] = simplify(
            conjunction(guard_terms + [raw_condition])
        )
        if has_continue:
            cond_builder.updates[ctx.cont_var] = Const(False)
        self._flush(cond_builder)

        body_loc = self.program.add_location("loop-body", line=statement.lineno)
        after_loc = self.program.add_location("after-loop", line=statement.lineno)
        self.program.set_successor(cond_loc.loc_id, body_loc.loc_id, after_loc.loc_id)

        body_builder = self._new_builder(
            body_loc.loc_id,
            loops_with_ctx,
            may_have_returned=False,
        )
        if isinstance(statement, ast.For):
            self._assign_loop_target(body_builder, statement.target, iterator_var)
        body_exit = self._translate_statements(body, body_builder)
        self._flush(body_exit)
        self.program.set_successor(body_exit.loc_id, cond_loc.loc_id, cond_loc.loc_id)

        if body_returns:
            self.may_have_returned = True
        return self._new_builder(after_loc.loc_id, outer_loops)

    def _assign_loop_target(
        self, builder: _BlockBuilder, target: ast.expr, iterator_var: str
    ) -> None:
        head = Op("ListHead", Var(iterator_var))
        if isinstance(target, ast.Name):
            builder.assign_expr(target.id, head, guarded=False)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for position, element in enumerate(target.elts):
                if not isinstance(element, ast.Name):
                    raise UnsupportedFeatureError("nested loop target", target.lineno)
                builder.assign_expr(
                    element.id, Op("GetElement", head, Const(position)), guarded=False
                )
        else:
            raise UnsupportedFeatureError(
                f"loop target {type(target).__name__}", getattr(target, "lineno", None)
            )
        builder.assign_expr(
            iterator_var, Op("ListTail", Var(iterator_var)), guarded=False
        )

    # -- expression conversion ----------------------------------------------

    def convert_expression(self, node: ast.expr) -> Expr:
        """Convert a Python expression AST into a model expression (no substitution)."""
        if isinstance(node, ast.Name):
            return Var(node.id)
        if isinstance(node, ast.Constant):
            value = node.value
            if value is Ellipsis:
                raise UnsupportedFeatureError("ellipsis literal", node.lineno)
            return Const(value)
        if isinstance(node, ast.BinOp):
            name = _BINOP_NAMES.get(type(node.op))
            if name is None:
                raise UnsupportedFeatureError(
                    f"operator {type(node.op).__name__}", node.lineno
                )
            return Op(name, self.convert_expression(node.left), self.convert_expression(node.right))
        if isinstance(node, ast.UnaryOp):
            name = _UNARYOP_NAMES.get(type(node.op))
            if name is None:
                raise UnsupportedFeatureError(
                    f"operator {type(node.op).__name__}", node.lineno
                )
            return Op(name, self.convert_expression(node.operand))
        if isinstance(node, ast.BoolOp):
            name = "And" if isinstance(node.op, ast.And) else "Or"
            result = self.convert_expression(node.values[0])
            for value in node.values[1:]:
                result = Op(name, result, self.convert_expression(value))
            return result
        if isinstance(node, ast.Compare):
            terms: list[Expr] = []
            left = self.convert_expression(node.left)
            for op, comparator in zip(node.ops, node.comparators):
                name = _CMPOP_NAMES.get(type(op))
                if name is None:
                    raise UnsupportedFeatureError(
                        f"comparison {type(op).__name__}", node.lineno
                    )
                right = self.convert_expression(comparator)
                terms.append(Op(name, left, right))
                left = right
            return conjunction(terms) if len(terms) > 1 else terms[0]
        if isinstance(node, ast.Call):
            return self._convert_call(node)
        if isinstance(node, ast.Subscript):
            return self._convert_subscript(node)
        if isinstance(node, ast.List):
            if not node.elts:
                return Const([])
            return Op("ListInit", *[self.convert_expression(e) for e in node.elts])
        if isinstance(node, ast.Tuple):
            return Op("TupleInit", *[self.convert_expression(e) for e in node.elts])
        if isinstance(node, ast.IfExp):
            return Op(
                "ite",
                self.convert_expression(node.test),
                self.convert_expression(node.body),
                self.convert_expression(node.orelse),
            )
        if isinstance(node, ast.Attribute):
            return Op(f"Attr_{node.attr}", self.convert_expression(node.value))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            raise UnsupportedFeatureError("comprehension", node.lineno)
        if isinstance(node, ast.Lambda):
            raise UnsupportedFeatureError("lambda", node.lineno)
        if isinstance(node, (ast.Dict, ast.Set)):
            raise UnsupportedFeatureError("dict/set literal", node.lineno)
        if isinstance(node, ast.Starred):
            raise UnsupportedFeatureError("starred expression", node.lineno)
        raise UnsupportedFeatureError(type(node).__name__, getattr(node, "lineno", None))

    def _convert_call(self, node: ast.Call) -> Expr:
        if node.keywords:
            raise UnsupportedFeatureError("keyword arguments", node.lineno)
        args = [self.convert_expression(a) for a in node.args]
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _KNOWN_CALLS:
                return Op(name, *args)
            # A call to an unknown / student-defined function: keep the name
            # so the repair can still reason about it; it evaluates to ⊥.
            return Op(name, *args)
        if isinstance(node.func, ast.Attribute):
            obj = self.convert_expression(node.func.value)
            method = node.func.attr
            if method == "append" and len(args) == 1:
                return Op("append", obj, args[0])
            return Op(f"Method_{method}", obj, *args)
        raise UnsupportedFeatureError("computed call target", node.lineno)

    def _convert_subscript(self, node: ast.Subscript) -> Expr:
        base = self.convert_expression(node.value)
        if isinstance(node.slice, ast.Slice):
            lower = (
                self.convert_expression(node.slice.lower)
                if node.slice.lower is not None
                else Const(None)
            )
            upper = (
                self.convert_expression(node.slice.upper)
                if node.slice.upper is not None
                else Const(None)
            )
            if node.slice.step is not None:
                step = self.convert_expression(node.slice.step)
                return Op("SliceStep", base, lower, upper, step)
            return Op("Slice", base, lower, upper)
        index = self.convert_expression(node.slice)
        return Op("GetElement", base, index)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_python_source(source: str, entry: str | None = None) -> Program:
    """Parse Python source text and translate ``entry`` (or the only/first
    function definition) into a :class:`Program`."""
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise ParseError(f"syntax error: {exc}") from exc
    functions = [n for n in module.body if isinstance(n, ast.FunctionDef)]
    if not functions:
        raise ParseError("no function definition found")
    if entry is not None:
        for func in functions:
            if func.name == entry:
                return parse_python_function(func, source)
        raise ParseError(f"function {entry!r} not found")
    return parse_python_function(functions[0], source)


def parse_python_function(func: ast.FunctionDef, source: str) -> Program:
    """Translate a single ``ast.FunctionDef`` into a :class:`Program`."""
    return _Translator(func, source).translate()
