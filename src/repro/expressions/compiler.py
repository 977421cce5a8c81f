"""Expression compiler: AST -> Python closures.

The tree-walking evaluator (:func:`repro.expressions.evaluator.evaluate`)
re-dispatches on node types for every row; it stays as the reference
definition of expression semantics (the provenance oracles and the
tests interpret with it).  The engine compiles instead, performing that
dispatch once.  Semantics are identical — the property test in
``tests/test_compiler.py`` checks the two against each other on random
expressions.

One scalar compiler and the kernels derived from it:

* :func:`compile_row` — every node kind compiles to a ``(row, ctx) ->
  value`` function against the name->position index of the operator's
  input schema.  Level-0 columns become positional reads; outer columns,
  ``?`` parameters and sublinks read the
  :class:`~repro.expressions.evaluator.EvalContext`.
* the **batch compilers** (:func:`compile_batch_predicate`,
  :func:`compile_batch_projector`, :func:`compile_batch_values`) — used by
  the pipelined engine: one call evaluates a whole row batch through
  :func:`compile_row`.  When no compiled node reads the context, no
  :class:`EvalContext`/:class:`Frame` objects are allocated at all;
  otherwise a single mutable frame is reused across the batch instead of
  allocating one per row.
* the **vector compilers** (:func:`compile_vector_predicate`,
  :func:`compile_vector_values`) — used by the vectorized engine over
  :class:`~repro.engine.columnar.ColumnBatch` columns: a predicate
  compiles to whole-column kernels refining a selection vector, a scalar
  expression to a kernel producing one value vector.  Both return None
  for anything they cannot compile with *identical* semantics (sublinks,
  outer columns, LIKE/CASE/casts/functions, OR) — the engine then keeps
  that operator on the row path, so ``engine="vectorized"`` is always
  correct, never partial.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

from ..datatypes import (
    NEGATED_COMPARISON, _comparable, arithmetic, compare, is_true, negate,
    null_safe_equal, tv_not,
)
from ..errors import ExpressionError
from .ast import (
    AggCall, Arith, BoolOp, Case, Cast, Col, Comparison, Const, Expr,
    FuncCall, IsNull, Like, Neg, Not, NullSafeEq, Param, Sublink,
)
from .evaluator import (
    EvalContext, Frame, _cast, _eval_sublink, _like_regex,
)
from .functions import SCALAR_FUNCTIONS

#: A compiled scalar: ``(row, ctx) -> value``.  *ctx* may be None when
#: :func:`compile_row` reported that the function never reads it.
RowCompiled = Callable[[tuple, "EvalContext | None"], Any]

#: Comparison dispatch hoisted to compile time (vs the string-op chain
#: :func:`repro.datatypes.compare` walks per call).
_COMPARE_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Batch evaluators take (rows, outer frames, subquery runner, params).
BatchFilter = Callable[..., list]
BatchProjector = Callable[..., list]
BatchValues = Callable[..., list]

#: ``(fn, needs_ctx, is_const)`` per compiled node.
_RowResult = tuple[RowCompiled, bool, bool]
#: One row compilation: the input's name index, then the identity memo.
_RowEnv = tuple[dict[str, int], dict[int, _RowResult]]


def compile_row(expr: Expr,
                index: dict[str, int]) -> tuple[RowCompiled, bool]:
    """Compile *expr* into a ``(row, ctx) -> value`` function against the
    name->position *index* of the operator's input schema; the flag says
    whether the function reads *ctx*.

    Level-0 columns in *index* become positional reads; any other column
    (outer levels, and names the index lacks) reads ``ctx.lookup``, which
    raises :class:`ExpressionError` for a name no frame has.  Pure
    constant subtrees (e.g. the ``Neg(Const)`` of a negative literal)
    fold at compile time — function calls never do, since registered
    functions may be non-deterministic — and comparison dispatch is
    hoisted out of the per-row path.

    A cached plan keeps hundreds of these functions alive and the
    collector walks them all, so they are kept small: what a function
    needs is bound as a positional default argument, not closed over (a
    cell per variable, each gc-tracked; a keyword-only default is a dict
    lookup per binding per call, 4-5 % of ``tpch_sublink``), and an
    identity memo makes a subtree used several times — the tested value
    of an ``IN`` list — one function.  Callers hold them as
    :data:`RowCompiled`, which admits no extra argument.  The per-batch
    functions operators call bind keyword-only.
    """
    fn, needs_ctx, _ = _compile_row(expr, (index, {}))
    return fn, needs_ctx


def _fold(fn: RowCompiled) -> RowCompiled:
    """Evaluate a constant subtree once; on error keep the original
    function so the exception still surfaces at evaluation time."""
    try:
        value = fn(None, None)
    except Exception:
        return fn
    return lambda row, ctx, value=value: value


def _node(fn: RowCompiled, children: Sequence[_RowResult],
          foldable: bool = True) -> _RowResult:
    """The result for *fn* over its compiled *children*: it reads the
    context iff a child does, and folds iff every child is constant."""
    needs_ctx = any([child[1] for child in children])
    if foldable and all([child[2] for child in children]):
        return _fold(fn), needs_ctx, True
    return fn, needs_ctx, False


def _compile_row(expr: Expr, env: _RowEnv) -> _RowResult:
    memo = env[1]
    result = memo.get(id(expr))
    if result is None:
        result = memo[id(expr)] = _compile_row_node(expr, env)
    return result


def _compile_row_node(expr: Expr, env: _RowEnv) -> _RowResult:
    index = env[0]
    if isinstance(expr, Const):
        return (lambda row, ctx, value=expr.value: value), False, True

    if isinstance(expr, Param):
        return (lambda row, ctx, position=expr.index:
                ctx.param(position)), True, False

    if isinstance(expr, Col):
        if expr.level == 0 and expr.name in index:
            return (lambda row, ctx, position=index[expr.name]:
                    row[position]), False, False
        return (lambda row, ctx, name=expr.name, level=expr.level:
                ctx.lookup(name, level)), True, False

    if isinstance(expr, Comparison):
        left = _compile_row(expr.left, env)
        right = _compile_row(expr.right, env)

        def comparison(row: tuple, ctx: Any, left=left[0], right=right[0],
                       apply=_COMPARE_OPS[expr.op], op=expr.op) -> Any:
            a = left(row, ctx)
            b = right(row, ctx)
            if a is None or b is None:
                return None
            if not _comparable(a, b):
                raise ExpressionError(
                    f"cannot compare {type(a).__name__} with "
                    f"{type(b).__name__} ({a!r} {op} {b!r})")
            return apply(a, b)
        return _node(comparison, (left, right))

    if isinstance(expr, NullSafeEq):
        left = _compile_row(expr.left, env)
        right = _compile_row(expr.right, env)
        return _node(lambda row, ctx, left=left[0], right=right[0]:
                     null_safe_equal(left(row, ctx), right(row, ctx)),
                     (left, right))

    if isinstance(expr, BoolOp):
        compiled = [_compile_row(item, env) for item in expr.items]
        items = tuple([fn for fn, _, _ in compiled])
        if expr.op == "and":
            def conjunction(row: tuple, ctx: Any, items=items) -> Any:
                result: Any = True
                for item in items:
                    value = item(row, ctx)
                    if value is False:
                        return False
                    if value is None:
                        result = None
                return result
            return _node(conjunction, compiled)

        def disjunction(row: tuple, ctx: Any, items=items) -> Any:
            result: Any = False
            for item in items:
                value = item(row, ctx)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result
        return _node(disjunction, compiled)

    if isinstance(expr, (Not, IsNull, Neg, Cast)):
        child = _compile_row(expr.operand, env)
        operand = child[0]
        if isinstance(expr, Not):
            fn = lambda row, ctx, operand=operand: \
                tv_not(operand(row, ctx))  # noqa: E731
        elif isinstance(expr, IsNull):
            fn = lambda row, ctx, operand=operand: \
                operand(row, ctx) is None  # noqa: E731
        elif isinstance(expr, Neg):
            fn = lambda row, ctx, operand=operand: \
                negate(operand(row, ctx))  # noqa: E731
        else:
            fn = lambda row, ctx, operand=operand, \
                type_name=expr.type_name: \
                _cast(operand(row, ctx), type_name)  # noqa: E731
        return _node(fn, (child,))

    if isinstance(expr, Arith):
        left = _compile_row(expr.left, env)
        right = _compile_row(expr.right, env)
        return _node(lambda row, ctx, op=expr.op, left=left[0],
                     right=right[0]:
                     arithmetic(op, left(row, ctx), right(row, ctx)),
                     (left, right))

    if isinstance(expr, Like):
        operand = _compile_row(expr.operand, env)
        pattern = _compile_row(expr.pattern, env)

        def like(row: tuple, ctx: Any, operand=operand[0],
                 pattern=pattern[0]) -> Any:
            value = operand(row, ctx)
            text = pattern(row, ctx)
            if value is None or text is None:
                return None
            return _like_regex(text).fullmatch(value) is not None
        return _node(like, (operand, pattern))

    if isinstance(expr, Case):
        # children(): condition, value, ..., default
        compiled = [_compile_row(child, env) for child in expr.children()]
        fns = [fn for fn, _, _ in compiled]

        def case(row: tuple, ctx: Any,
                 whens=tuple(zip(fns[0:-1:2], fns[1:-1:2])),
                 default=fns[-1]) -> Any:
            for condition, value in whens:
                if is_true(condition(row, ctx)):
                    return value(row, ctx)
            return default(row, ctx)
        return _node(case, compiled)

    if isinstance(expr, FuncCall):
        try:
            function = SCALAR_FUNCTIONS[expr.name.lower()]
        except KeyError:
            raise ExpressionError(
                f"unknown function {expr.name!r}") from None
        compiled = [_compile_row(arg, env) for arg in expr.args]

        def call(row: tuple, ctx: Any, function=function,
                 args=tuple([fn for fn, _, _ in compiled]),
                 name=expr.name) -> Any:
            # outside the try: an argument's error is not the function's
            values = [arg(row, ctx) for arg in args]
            try:
                return function(*values)
            except ExpressionError:
                raise
            except Exception as exc:
                raise ExpressionError(
                    f"error in {name}: {exc}") from exc
        return _node(call, compiled, foldable=False)

    if isinstance(expr, Sublink):
        test = None if expr.test is None \
            else _compile_row(expr.test, env)[0]
        return (lambda row, ctx, node=expr, test=test:
                _eval_sublink(node, ctx, test, row)), True, False

    if isinstance(expr, AggCall):
        raise ExpressionError(
            "aggregate call compiled outside an Aggregate operator")

    raise ExpressionError(f"cannot compile expression node {expr!r}")


def _make_state(index: dict[str, int], frames, runner, params):
    """A reusable (frame, context) pair for one batch call."""
    frame = Frame(index, None)
    return frame, EvalContext((*frames, frame), runner, params)


def compile_batch_predicate(expr: Expr,
                            index: dict[str, int]) -> BatchFilter:
    """A ``(rows, frames, runner, params) -> surviving rows`` filter.

    WHERE semantics: a row survives iff the predicate is definitely true.
    """
    fn, needs_ctx = compile_row(expr, index)
    if not needs_ctx:
        def run_free(rows, frames, runner, params, *, fn=fn):
            return [row for row in rows if is_true(fn(row, None))]
        return run_free

    def run(rows, frames, runner, params, *, fn=fn, index=index):
        frame, ctx = _make_state(index, frames, runner, params)
        out = []
        for row in rows:
            frame.row = row
            if is_true(fn(row, ctx)):
                out.append(row)
        return out
    return run


def compile_batch_projector(exprs: Sequence[Expr],
                            index: dict[str, int]) -> BatchProjector:
    """A ``(rows, frames, runner, params) -> list of output tuples``
    projector evaluating all items of a projection in one pass.

    All-column projections (the pure renames and column shuffles the
    provenance rewrites emit in bulk) compile to a positional
    ``itemgetter`` — and an identity projection passes batches through
    untouched.
    """
    if exprs and all(
            isinstance(e, Col) and e.level == 0 and e.name in index
            for e in exprs):
        positions = tuple(index[e.name] for e in exprs)
        if positions == tuple(range(len(index))):
            return lambda rows, frames, runner, params: rows
        if len(positions) == 1:
            return lambda rows, frames, runner, params, *, \
                position=positions[0]: [(row[position],) for row in rows]
        return lambda rows, frames, runner, params, *, \
            getter=itemgetter(*positions): [getter(row) for row in rows]

    compiled = [compile_row(expr, index) for expr in exprs]
    fns = tuple([fn for fn, _ in compiled])
    if not any(flag for _, flag in compiled):
        def run_free(rows, frames, runner, params, *, fns=fns):
            return [tuple([fn(row, None) for fn in fns]) for row in rows]
        return run_free

    def run(rows, frames, runner, params, *, fns=fns, index=index):
        frame, ctx = _make_state(index, frames, runner, params)
        out = []
        for row in rows:
            frame.row = row
            out.append(tuple([fn(row, ctx) for fn in fns]))
        return out
    return run


def compile_batch_values(expr: Expr,
                         index: dict[str, int]) -> BatchValues:
    """A ``(rows, frames, runner, params) -> list of values`` evaluator
    (one value per input row) for aggregate arguments and similar."""
    fn, needs_ctx = compile_row(expr, index)
    if not needs_ctx:
        def run_free(rows, frames, runner, params, *, fn=fn):
            return [fn(row, None) for row in rows]
        return run_free

    def run(rows, frames, runner, params, *, fn=fn, index=index):
        frame, ctx = _make_state(index, frames, runner, params)
        out = []
        for row in rows:
            frame.row = row
            out.append(fn(row, ctx))
        return out
    return run


# ---------------------------------------------------------------------------
# Vector compilation (the vectorized engine's columnar path)
# ---------------------------------------------------------------------------
#
# Vector kernels run over the column vectors of a
# :class:`~repro.engine.columnar.ColumnBatch`:
#
# * a *predicate kernel* has signature ``(columns, sel, params) ->
#   selection`` — it refines the batch's selection vector, one whole-column
#   pass per conjunct, without touching row tuples;
# * a *value kernel* has signature ``(columns, idxs, params) -> values`` —
#   one output value per selected index (projections, aggregate
#   arguments, hash keys, computed comparison operands).
#
# Semantics replicate the row compiler exactly, including SQL's
# three-valued AND: the row conjunction short-circuits on a definite
# False but keeps evaluating after an unknown, so the kernel keeps
# NULL-valued rows in the candidate list (recording them in a ``nulls``
# set) and only removes them after the last conjunct — a later conjunct
# still sees them, and still raises the same errors on them.  Fast paths
# (bare comprehensions over ``operator``-module functions) fire only when
# the column kind *guarantees* comparability and non-nullness; every
# other shape goes through :func:`repro.datatypes.compare` /
# :func:`~repro.datatypes.arithmetic`, so error messages are identical
# to the row engine's.  The one documented divergence: when several rows
# of one batch would raise, the vector engine surfaces the first error in
# column-major (conjunct-by-conjunct) order rather than row-major order —
# still an :class:`~repro.errors.ExpressionError`, possibly for a
# different offending row.
#
# Anything not supported compiles to ``None`` and the operator stays on
# the row path (correct, never partial): sublinks, outer (level > 0) or
# unknown columns, OR, LIKE, CASE, casts, function calls.

#: Arithmetic fast-path dispatch for operators that cannot raise on
#: non-null numbers (``/`` and ``%`` have zero checks; ``||`` casts).
import operator as _operator

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add, "-": _operator.sub, "*": _operator.mul,
}

#: A predicate kernel: ``(columns, sel, params) -> list of indices``.
VectorPredicate = Callable[..., list]
#: A value kernel: ``(columns, idxs, params) -> list of values``.
VectorValues = Callable[..., list]


def compile_vector_values(expr: Expr,
                          index: dict[str, int]) -> VectorValues | None:
    """Compile *expr* into a value kernel, or None when unsupported."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda columns, idxs, params: [value] * len(idxs)

    if isinstance(expr, Param):
        position = expr.index
        return lambda columns, idxs, params: [params[position]] * len(idxs)

    if isinstance(expr, Col) and expr.level == 0 and expr.name in index:
        position = index[expr.name]

        def read(columns, idxs, params):
            values = columns[position].values
            return [values[i] for i in idxs]
        return read

    if isinstance(expr, Arith):
        op = expr.op
        if op in _ARITH_OPS \
                and isinstance(expr.left, Col) and expr.left.level == 0 \
                and expr.left.name in index \
                and isinstance(expr.right, Col) and expr.right.level == 0 \
                and expr.right.name in index:
            left_pos = index[expr.left.name]
            right_pos = index[expr.right.name]
            fast = _ARITH_OPS[op]

            def arith_columns(columns, idxs, params):
                left_col = columns[left_pos]
                right_col = columns[right_pos]
                left_values = left_col.values
                right_values = right_col.values
                if left_col.kind == "num" and right_col.kind == "num" \
                        and not left_col.has_nulls \
                        and not right_col.has_nulls:
                    return [fast(left_values[i], right_values[i])
                            for i in idxs]
                return [arithmetic(op, left_values[i], right_values[i])
                        for i in idxs]
            return arith_columns
        left = compile_vector_values(expr.left, index)
        right = compile_vector_values(expr.right, index)
        if left is None or right is None:
            return None

        def arith_values(columns, idxs, params):
            return [arithmetic(op, a, b)
                    for a, b in zip(left(columns, idxs, params),
                                    right(columns, idxs, params))]
        return arith_values

    if isinstance(expr, Neg):
        operand = compile_vector_values(expr.operand, index)
        if operand is None:
            return None
        return lambda columns, idxs, params: [
            negate(v) for v in operand(columns, idxs, params)]

    if isinstance(expr, Comparison):
        op = expr.op
        left = compile_vector_values(expr.left, index)
        right = compile_vector_values(expr.right, index)
        if left is None or right is None:
            return None
        return lambda columns, idxs, params: [
            compare(op, a, b)
            for a, b in zip(left(columns, idxs, params),
                            right(columns, idxs, params))]

    if isinstance(expr, NullSafeEq):
        left = compile_vector_values(expr.left, index)
        right = compile_vector_values(expr.right, index)
        if left is None or right is None:
            return None
        return lambda columns, idxs, params: [
            null_safe_equal(a, b)
            for a, b in zip(left(columns, idxs, params),
                            right(columns, idxs, params))]

    if isinstance(expr, Not):
        operand = compile_vector_values(expr.operand, index)
        if operand is None:
            return None
        return lambda columns, idxs, params: [
            tv_not(v) for v in operand(columns, idxs, params)]

    if isinstance(expr, IsNull):
        operand = compile_vector_values(expr.operand, index)
        if operand is None:
            return None
        return lambda columns, idxs, params: [
            v is None for v in operand(columns, idxs, params)]

    # Unsupported: Sublink, BoolOp (short-circuit error semantics don't
    # survive eager per-item vector evaluation), Like, Case, Cast,
    # FuncCall, outer/unknown columns, aggregates.
    return None


def _fast_scalar(kind: str, value: Any) -> bool:
    """True when *kind* guarantees every column value is directly
    comparable with *value* by Python operators (no 3VL, no errors)."""
    if kind == "num":
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool)
    if kind == "text":
        return isinstance(value, str)
    if kind == "bool":
        return isinstance(value, bool)
    return False


def _operand(expr: Expr, index: dict[str, int]):
    """Classify a comparison operand: column, scalar, or value kernel."""
    if isinstance(expr, Const):
        return ("const", expr.value)
    if isinstance(expr, Neg) and isinstance(expr.operand, Const):
        # negative literals parse as Neg(Const); fold numeric ones so
        # ``b >= -5`` still takes the column-vs-scalar fast path
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return ("const", -value)
    if isinstance(expr, Param):
        return ("param", expr.index)
    if isinstance(expr, Col) and expr.level == 0 and expr.name in index:
        return ("col", index[expr.name])
    kernel = compile_vector_values(expr, index)
    if kernel is None:
        return None
    return ("kernel", kernel)


def _fetcher(tag: str, payload) -> VectorValues:
    """A value kernel for one classified operand."""
    if tag == "col":
        position = payload

        def read(columns, idxs, params):
            values = columns[position].values
            return [values[i] for i in idxs]
        return read
    if tag == "const":
        return lambda columns, idxs, params: [payload] * len(idxs)
    if tag == "param":
        return lambda columns, idxs, params: [params[payload]] * len(idxs)
    return payload


def _col_scalar_step(position: int, op: str, resolve, reverse: bool):
    """Comparison step for column-vs-scalar (or scalar-vs-column when
    *reverse*); the hot shape of every filter in the bench workloads."""
    apply = _COMPARE_OPS[op]

    def step(columns, cand, nulls, params):
        value = resolve(params)
        column = columns[position]
        values = column.values
        if value is None:
            # NULL comparand: unknown for every candidate row
            nulls.update(cand)
            return cand if isinstance(cand, list) else list(cand)
        if _fast_scalar(column.kind, value):
            if not column.has_nulls:
                if reverse:
                    return [i for i in cand if apply(value, values[i])]
                return [i for i in cand if apply(values[i], value)]
            out = []
            if reverse:
                for i in cand:
                    v = values[i]
                    if v is None:
                        nulls.add(i)
                        out.append(i)
                    elif apply(value, v):
                        out.append(i)
            else:
                for i in cand:
                    v = values[i]
                    if v is None:
                        nulls.add(i)
                        out.append(i)
                    elif apply(v, value):
                        out.append(i)
            return out
        out = []
        if reverse:
            for i in cand:
                result = compare(op, value, values[i])
                if result is True:
                    out.append(i)
                elif result is None:
                    nulls.add(i)
                    out.append(i)
        else:
            for i in cand:
                result = compare(op, values[i], value)
                if result is True:
                    out.append(i)
                elif result is None:
                    nulls.add(i)
                    out.append(i)
        return out
    return step


def _col_col_step(left_pos: int, right_pos: int, op: str):
    """Comparison step for column-vs-column (join residuals, ``a < b``)."""
    apply = _COMPARE_OPS[op]

    def step(columns, cand, nulls, params):
        left_col = columns[left_pos]
        right_col = columns[right_pos]
        left_values = left_col.values
        right_values = right_col.values
        if left_col.kind == right_col.kind \
                and left_col.kind in ("num", "text", "bool"):
            if not left_col.has_nulls and not right_col.has_nulls:
                return [i for i in cand
                        if apply(left_values[i], right_values[i])]
            out = []
            for i in cand:
                a = left_values[i]
                b = right_values[i]
                if a is None or b is None:
                    nulls.add(i)
                    out.append(i)
                elif apply(a, b):
                    out.append(i)
            return out
        out = []
        for i in cand:
            result = compare(op, left_values[i], right_values[i])
            if result is True:
                out.append(i)
            elif result is None:
                nulls.add(i)
                out.append(i)
        return out
    return step


def _general_comparison_step(op: str, left_fetch: VectorValues,
                             right_fetch: VectorValues):
    """Comparison step with at least one computed operand."""
    def step(columns, cand, nulls, params):
        idxs = cand if isinstance(cand, list) else list(cand)
        left_values = left_fetch(columns, idxs, params)
        right_values = right_fetch(columns, idxs, params)
        out = []
        for i, a, b in zip(idxs, left_values, right_values):
            result = compare(op, a, b)
            if result is True:
                out.append(i)
            elif result is None:
                nulls.add(i)
                out.append(i)
        return out
    return step


def _comparison_step(op: str, left: Expr, right: Expr,
                     index: dict[str, int]):
    left_operand = _operand(left, index)
    right_operand = _operand(right, index)
    if left_operand is None or right_operand is None:
        return None
    left_tag, left_payload = left_operand
    right_tag, right_payload = right_operand
    if left_tag == "col" and right_tag == "col":
        return _col_col_step(left_payload, right_payload, op)
    if left_tag == "col" and right_tag in ("const", "param"):
        resolve = (lambda params, v=right_payload: v) \
            if right_tag == "const" \
            else (lambda params, p=right_payload: params[p])
        return _col_scalar_step(left_payload, op, resolve, reverse=False)
    if right_tag == "col" and left_tag in ("const", "param"):
        resolve = (lambda params, v=left_payload: v) \
            if left_tag == "const" \
            else (lambda params, p=left_payload: params[p])
        return _col_scalar_step(right_payload, op, resolve, reverse=True)
    return _general_comparison_step(op, _fetcher(left_tag, left_payload),
                                    _fetcher(right_tag, right_payload))


def _is_null_step(operand: Expr, index: dict[str, int], want_null: bool):
    """``IS NULL`` / ``IS NOT NULL``: always two-valued, never unknown."""
    if isinstance(operand, Col) and operand.level == 0 \
            and operand.name in index:
        position = index[operand.name]
        if want_null:
            def step(columns, cand, nulls, params):
                values = columns[position].values
                return [i for i in cand if values[i] is None]
        else:
            def step(columns, cand, nulls, params):
                values = columns[position].values
                return [i for i in cand if values[i] is not None]
        return step
    kernel = compile_vector_values(operand, index)
    if kernel is None:
        return None
    if want_null:
        def step(columns, cand, nulls, params):
            idxs = cand if isinstance(cand, list) else list(cand)
            values = kernel(columns, idxs, params)
            return [i for i, v in zip(idxs, values) if v is None]
    else:
        def step(columns, cand, nulls, params):
            idxs = cand if isinstance(cand, list) else list(cand)
            values = kernel(columns, idxs, params)
            return [i for i, v in zip(idxs, values) if v is not None]
    return step


def _value_step(expr: Expr, index: dict[str, int], strict: bool):
    """A conjunct evaluated as a plain truth value.

    Inside a conjunction (*strict* False) the row compiler treats any
    value that is neither False nor None as contributing true; as the
    whole predicate (*strict* True), WHERE semantics keep only a definite
    True.  Both are replicated exactly.
    """
    kernel = compile_vector_values(expr, index)
    if kernel is None:
        return None
    if strict:
        def step(columns, cand, nulls, params):
            idxs = cand if isinstance(cand, list) else list(cand)
            values = kernel(columns, idxs, params)
            return [i for i, v in zip(idxs, values) if v is True]
        return step

    def step(columns, cand, nulls, params):
        idxs = cand if isinstance(cand, list) else list(cand)
        values = kernel(columns, idxs, params)
        out = []
        for i, v in zip(idxs, values):
            if v is False:
                continue
            if v is None:
                nulls.add(i)
            out.append(i)
        return out
    return step


def _compile_step(expr: Expr, index: dict[str, int], strict: bool):
    """One conjunct -> one selection-refining step, or None."""
    if isinstance(expr, Not) and isinstance(expr.operand, Comparison):
        # NOT (a < b) == a >= b under 3VL: both are unknown on NULL, and
        # compare() raises identically for incomparable operands.
        inner = expr.operand
        return _comparison_step(NEGATED_COMPARISON[inner.op], inner.left,
                                inner.right, index)
    if isinstance(expr, Comparison):
        return _comparison_step(expr.op, expr.left, expr.right, index)
    if isinstance(expr, IsNull):
        return _is_null_step(expr.operand, index, want_null=True)
    if isinstance(expr, Not) and isinstance(expr.operand, IsNull):
        return _is_null_step(expr.operand.operand, index, want_null=False)
    if isinstance(expr, NullSafeEq):
        left_operand = _operand(expr.left, index)
        right_operand = _operand(expr.right, index)
        if left_operand is None or right_operand is None:
            return None
        left_fetch = _fetcher(*left_operand)
        right_fetch = _fetcher(*right_operand)

        def step(columns, cand, nulls, params):
            idxs = cand if isinstance(cand, list) else list(cand)
            left_values = left_fetch(columns, idxs, params)
            right_values = right_fetch(columns, idxs, params)
            return [i for i, a, b in zip(idxs, left_values, right_values)
                    if null_safe_equal(a, b)]
        return step
    return _value_step(expr, index, strict)


def _flatten_and(expr: Expr) -> list[Expr]:
    if isinstance(expr, BoolOp) and expr.op == "and":
        items: list[Expr] = []
        for item in expr.items:
            items.extend(_flatten_and(item))
        return items
    return [expr]


def compile_vector_predicate(expr: Expr, index: dict[str, int]
                             ) -> VectorPredicate | None:
    """Compile a WHERE/residual predicate into a selection-vector kernel
    ``(columns, sel, params) -> list of surviving indices``, or None when
    any conjunct is unsupported (the operator then stays on rows)."""
    strict = not (isinstance(expr, BoolOp) and expr.op == "and")
    conjuncts = _flatten_and(expr)
    steps = []
    for conjunct in conjuncts:
        step = _compile_step(conjunct, index, strict)
        if step is None:
            return None
        steps.append(step)

    if len(steps) == 1:
        only = steps[0]

        def single(columns, sel, params):
            nulls: set = set()
            cand = only(columns, sel, nulls, params)
            if nulls:
                cand = [i for i in cand if i not in nulls]
            return cand
        return single

    def kernel(columns, sel, params):
        nulls: set = set()
        cand = sel
        for step in steps:
            cand = step(columns, cand, nulls, params)
            if not cand:
                return cand if isinstance(cand, list) else list(cand)
        if nulls:
            cand = [i for i in cand if i not in nulls]
        return cand
    return kernel
