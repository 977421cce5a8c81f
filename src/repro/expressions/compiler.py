"""Expression compiler: AST -> Python closures.

The tree-walking evaluator re-dispatches on node types for every row; the
compiler performs that dispatch once, producing a closure over an
:class:`~repro.expressions.evaluator.EvalContext`.  Column positions are
*not* baked in (frames carry their own name index), so one compiled
expression works under any schema that provides the referenced names —
which is exactly what the provenance rewrites rely on.

This is the engine's counterpart of PostgreSQL's expression JIT; the
ablation benchmark (``benchmarks/bench_ablation.py``) measures its
effect.  Semantics are identical to :func:`repro.expressions.evaluator.
evaluate` — the property test in ``tests/test_compiler.py`` checks them
against each other on random expressions.

Two compilation surfaces:

* :func:`compile_expr` — per-row closure over an :class:`EvalContext`
  (the reference compiler the row compiler falls back to for stateful
  or rare shapes: sublinks, outer columns, CASE, LIKE, casts, calls).
* the **batch compilers** (:func:`compile_batch_predicate`,
  :func:`compile_batch_projector`, :func:`compile_batch_values`) — used by
  the pipelined engine: one call evaluates a whole row batch.  When the
  expression is *context-free* (level-0 columns, constants, parameters-
  free scalar structure), column positions are resolved against the
  operator's input schema once at compile time and no
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

Compiled = Callable[[EvalContext], Any]


def compile_expr(expr: Expr,
                 memo: dict[int, Compiled] | None = None) -> Compiled:
    """Compile *expr* into a function of an :class:`EvalContext`.

    A cached plan keeps hundreds of these alive and the collector walks
    them all, so they are kept small: what a function needs is bound as
    a default argument, not closed over (a cell per variable, each
    gc-tracked), and *memo* (node identity -> function, for one
    compilation) makes a subtree used several times — the tested value
    of an ``IN`` list — one function.

    Per-row functions (``(ctx)`` here, ``(row, ctx)`` in
    :func:`compile_row`) bind positionally: a keyword-only default is a
    dict lookup per binding per call, 4-5 % of ``tpch_sublink`` and
    ``synth_sublink``.  Callers hold them as :data:`Compiled` /
    :data:`RowCompiled`, which admit no extra argument.  The per-batch
    functions operators call bind keyword-only.
    """
    if memo is None:
        memo = {}
    fn = memo.get(id(expr))
    if fn is None:
        fn = memo[id(expr)] = _compile_expr(expr, memo)
    return fn


def _compile_expr(expr: Expr, memo: dict[int, Compiled]) -> Compiled:
    if isinstance(expr, Const):
        return lambda ctx, value=expr.value: value

    if isinstance(expr, Param):
        return lambda ctx, index=expr.index: ctx.param(index)

    if isinstance(expr, Col):
        if expr.level == 0:
            def read_current(ctx: EvalContext, name=expr.name) -> Any:
                frame = ctx.frames[-1]
                return frame.row[frame.index[name]]
            return read_current

        def read_outer(ctx: EvalContext, name=expr.name,
                       level=expr.level) -> Any:
            return ctx.lookup(name, level)
        return read_outer

    if isinstance(expr, Comparison):
        return lambda ctx, op=expr.op, \
            left=compile_expr(expr.left, memo), \
            right=compile_expr(expr.right, memo): \
            compare(op, left(ctx), right(ctx))

    if isinstance(expr, NullSafeEq):
        return lambda ctx, left=compile_expr(expr.left, memo), \
            right=compile_expr(expr.right, memo): \
            null_safe_equal(left(ctx), right(ctx))

    if isinstance(expr, BoolOp):
        items = tuple([compile_expr(item, memo) for item in expr.items])
        if expr.op == "and":
            def conjunction(ctx: EvalContext, items=items) -> Any:
                result: Any = True
                for item in items:
                    value = item(ctx)
                    if value is False:
                        return False
                    if value is None:
                        result = None
                return result
            return conjunction

        def disjunction(ctx: EvalContext, items=items) -> Any:
            result: Any = False
            for item in items:
                value = item(ctx)
                if value is True:
                    return True
                if value is None:
                    result = None
            return result
        return disjunction

    if isinstance(expr, Not):
        return lambda ctx, operand=compile_expr(expr.operand, memo): \
            tv_not(operand(ctx))

    if isinstance(expr, IsNull):
        return lambda ctx, operand=compile_expr(expr.operand, memo): \
            operand(ctx) is None

    if isinstance(expr, Arith):
        return lambda ctx, op=expr.op, \
            left=compile_expr(expr.left, memo), \
            right=compile_expr(expr.right, memo): \
            arithmetic(op, left(ctx), right(ctx))

    if isinstance(expr, Neg):
        return lambda ctx, operand=compile_expr(expr.operand, memo): \
            negate(operand(ctx))

    if isinstance(expr, FuncCall):
        try:
            fn = SCALAR_FUNCTIONS[expr.name.lower()]
        except KeyError:
            raise ExpressionError(
                f"unknown function {expr.name!r}") from None
        args = tuple([compile_expr(arg, memo) for arg in expr.args])

        def call(ctx: EvalContext, fn=fn, args=args,
                 name=expr.name) -> Any:
            try:
                return fn(*[arg(ctx) for arg in args])
            except ExpressionError:
                raise
            except Exception as exc:
                raise ExpressionError(
                    f"error in {name}: {exc}") from exc
        return call

    if isinstance(expr, Like):
        def like(ctx: EvalContext,
                 operand=compile_expr(expr.operand, memo),
                 pattern=compile_expr(expr.pattern, memo)) -> Any:
            value = operand(ctx)
            text = pattern(ctx)
            if value is None or text is None:
                return None
            return _like_regex(text).fullmatch(value) is not None
        return like

    if isinstance(expr, Cast):
        return lambda ctx, operand=compile_expr(expr.operand, memo), \
            type_name=expr.type_name: _cast(operand(ctx), type_name)

    if isinstance(expr, Case):
        whens = tuple([(compile_expr(cond, memo), compile_expr(value, memo))
                       for cond, value in expr.whens])

        def case(ctx: EvalContext, whens=whens,
                 default=compile_expr(expr.default, memo)) -> Any:
            for condition, value in whens:
                if is_true(condition(ctx)):
                    return value(ctx)
            return default(ctx)
        return case

    if isinstance(expr, Sublink):
        return lambda ctx, node=expr: _eval_sublink(node, ctx)

    if isinstance(expr, AggCall):
        raise ExpressionError(
            "aggregate call compiled outside an Aggregate operator")

    raise ExpressionError(f"cannot compile expression node {expr!r}")


# ---------------------------------------------------------------------------
# Batch compilation (the pipelined engine's vectorized path)
# ---------------------------------------------------------------------------

#: A row-specialized evaluator: positions resolved at compile time where
#: possible.  The second element reports whether the closure reads the
#: EvalContext (outer frames, parameters, sublinks, name-indexed lookups).
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
#: One row compilation: the input's name index, then the identity memos
#: of the row and of the scalar compiler (see :func:`compile_expr`).
_RowEnv = tuple[dict[str, int], dict[int, _RowResult], dict[int, Compiled]]


def compile_row(expr: Expr,
                index: dict[str, int]) -> tuple[RowCompiled, bool]:
    """Compile *expr* into a ``(row, ctx) -> value`` function against the
    name->position *index* of the operator's input schema.

    Level-0 column references become direct positional reads, pure
    constant subtrees (e.g. the ``Neg(Const)`` of a negative literal)
    fold at compile time, and comparison dispatch is hoisted out of the
    per-row path.  Subtrees that need evaluation state (outer references,
    parameters, sublinks, unknown names) fall back to
    :func:`compile_expr` over the mutable frame the batch wrappers
    maintain — semantics stay identical.
    """
    fn, needs_ctx, _ = _compile_row(expr, (index, {}, {}))
    return fn, needs_ctx


def _fold(fn: RowCompiled) -> RowCompiled:
    """Evaluate a constant subtree once; on error keep the original
    function so the exception still surfaces at evaluation time."""
    try:
        value = fn(None, None)
    except Exception:
        return fn
    return lambda row, ctx, value=value: value


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

    if isinstance(expr, Col) and expr.level == 0 and expr.name in index:
        return (lambda row, ctx, position=index[expr.name]:
                row[position]), False, False

    if isinstance(expr, Comparison):
        left, left_ctx, left_const = _compile_row(expr.left, env)
        right, right_ctx, right_const = _compile_row(expr.right, env)

        def comparison(row: tuple, ctx: Any, left=left, right=right,
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
        needs_ctx = left_ctx or right_ctx
        is_const = left_const and right_const
        if is_const:
            return _fold(comparison), needs_ctx, True
        return comparison, needs_ctx, False

    if isinstance(expr, NullSafeEq):
        left, left_ctx, left_const = _compile_row(expr.left, env)
        right, right_ctx, right_const = _compile_row(expr.right, env)
        fn = lambda row, ctx, left=left, right=right: \
            null_safe_equal(left(row, ctx), right(row, ctx))  # noqa: E731
        if left_const and right_const:
            return _fold(fn), left_ctx or right_ctx, True
        return fn, left_ctx or right_ctx, False

    if isinstance(expr, BoolOp):
        compiled = [_compile_row(item, env) for item in expr.items]
        items = tuple([fn for fn, _, _ in compiled])
        needs_ctx = any(flag for _, flag, _ in compiled)
        is_const = all(flag for _, _, flag in compiled)
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
            combined = conjunction
        else:
            def disjunction(row: tuple, ctx: Any, items=items) -> Any:
                result: Any = False
                for item in items:
                    value = item(row, ctx)
                    if value is True:
                        return True
                    if value is None:
                        result = None
                return result
            combined = disjunction
        if is_const:
            return _fold(combined), needs_ctx, True
        return combined, needs_ctx, False

    if isinstance(expr, (Not, IsNull, Neg)):
        operand, needs_ctx, is_const = _compile_row(expr.operand, env)
        if isinstance(expr, Not):
            fn = lambda row, ctx, operand=operand: \
                tv_not(operand(row, ctx))  # noqa: E731
        elif isinstance(expr, IsNull):
            fn = lambda row, ctx, operand=operand: \
                operand(row, ctx) is None  # noqa: E731
        else:
            fn = lambda row, ctx, operand=operand: \
                negate(operand(row, ctx))  # noqa: E731
        if is_const:
            return _fold(fn), needs_ctx, True
        return fn, needs_ctx, False

    if isinstance(expr, Arith):
        left, left_ctx, left_const = _compile_row(expr.left, env)
        right, right_ctx, right_const = _compile_row(expr.right, env)
        fn = lambda row, ctx, op=expr.op, left=left, right=right: \
            arithmetic(op, left(row, ctx), right(row, ctx))  # noqa: E731
        if left_const and right_const:
            return _fold(fn), left_ctx or right_ctx, True
        return fn, left_ctx or right_ctx, False

    # Everything stateful or rare (sublinks, outer/unknown columns,
    # parameters, CASE, LIKE, casts, function calls) goes through the
    # reference compiler against the mutable batch frame.
    return (lambda row, ctx, scalar=compile_expr(expr, env[2]):
            scalar(ctx)), True, False


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
