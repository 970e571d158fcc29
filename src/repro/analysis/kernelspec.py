"""Kernel classification pass: match analyzed UDFs to vectorizable shapes.

The analyzer (PR 1) already proves *what* a signal UDF does with its
neighbor loop — whether it breaks, which variables it carries.  This
pass goes one step further and asks whether the UDF is an instance of a
shape the framework can execute as a **batched NumPy CSR kernel**
instead of interpreting it once per vertex (GPOP-style partition-wise
batching meets Palgol-style UDF compilation):

* ``first_match_break`` — scan until the first neighbor satisfying a
  pure state predicate, emit once, break (bottom-up BFS, MIS);
* ``count_to_k_break`` — count neighbors satisfying a predicate and
  break when the running count saturates at a threshold (K-core);
* ``full_scan_sum`` — fold every neighbor term into a running sum and
  emit the delta (PageRank);
* ``full_scan_min`` — fold the minimum of a neighbor key and emit it
  when it improves (label-propagation CC).

Two further grammars cover the UDFs that run once per edge or per
update rather than once per vertex (GPOP-style scatter into
destination bins, then one reduction pass per bin):

* ``push_gather`` — a push signal ``(u, v, s)`` that is an
  unconditional ``return <expr>``, ``if <pred>: return None`` followed
  by ``return <expr>``, or ``return <expr> if <pred> else None`` (PageRank
  residual push, top-down BFS, MIS deactivation);
* ``slot_sum`` / ``slot_min`` / ``slot_first`` — a slot ``(v, value, s)``
  that is a sum fold ``s.x[v] += value``, a strict-min relax
  ``if value < s.x[v]: s.x[v] = value``, or a first-update-wins visit
  ``if s.flag[v]: return False`` followed by plain writes.

Classification is *best effort and conservative*: any statement,
expression, or side effect outside the recognized grammar simply
yields no :class:`KernelSpec`, and the engines fall back to the
per-vertex interpreter.  A spec therefore never changes semantics —
the kernels reproduce the interpreter's results, counters, and
byte accounting bit for bit (asserted by the equivalence suite).

Expressions inside a shape (predicates, emitted values, fold terms,
thresholds) are restricted to pure reads: state arrays indexed by the
loop variable or the destination vertex (``s.frontier[u]``,
``s.color[v]``), state scalars (``s.k``), constants, arithmetic,
comparisons, and boolean connectives.  They are recompiled into
vectorized evaluators over NumPy index arrays (``and``/``or``/``not``
become ``&``/``|``/``~``).
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.ast_analysis import DependencyInfo, SignalAst
from repro.analysis.purity import signal_effects

__all__ = [
    "KernelSpec",
    "classify_kernel",
    "FIRST_MATCH_BREAK",
    "COUNT_TO_K_BREAK",
    "FULL_SCAN_SUM",
    "FULL_SCAN_MIN",
    "PUSH_GATHER",
    "SLOT_SUM",
    "SLOT_MIN",
    "SLOT_FIRST",
    "SLOT_KINDS",
    "classify_push",
    "classify_slot",
]

FIRST_MATCH_BREAK = "first_match_break"
COUNT_TO_K_BREAK = "count_to_k_break"
FULL_SCAN_SUM = "full_scan_sum"
FULL_SCAN_MIN = "full_scan_min"
PUSH_GATHER = "push_gather"
SLOT_SUM = "slot_sum"
SLOT_MIN = "slot_min"
SLOT_FIRST = "slot_first"
SLOT_KINDS = (SLOT_SUM, SLOT_MIN, SLOT_FIRST)


class _NoMatch(Exception):
    """Internal control flow: the UDF is not an instance of this shape."""


@dataclass
class KernelSpec:
    """A signal UDF's compiled-to-kernel classification.

    ``exprs`` maps expression roles to vectorized evaluators with the
    uniform signature ``fn(state, u, v) -> ndarray | scalar`` where
    ``u`` is the flat array of neighbor ids under evaluation and ``v``
    the (broadcast) array of destination vertices.  Roles by kind:

    * ``first_match_break`` — ``predicate``, ``emit``;
    * ``count_to_k_break`` — ``predicate``, ``threshold``, ``init``;
    * ``full_scan_sum`` — ``term``, ``init``;
    * ``full_scan_min`` — ``term`` (the neighbor key), ``init``;
    * ``push_gather`` — ``value`` plus an optional ``skip`` (the
      ``return None`` guard) or ``keep`` (the conditional-expression
      test); ``u`` is the pushing vertex, ``v`` the out-neighbor;
    * ``slot_first`` — one ``write<i>`` role per written array, with
      ``u`` bound to the update value.

    Slot kinds name their target arrays in ``params``: ``target`` and
    ``returns`` (the constant a successful update returns) for the
    folds; ``flag``, ``negated``, ``writes`` and ``returns`` for
    ``slot_first``.

    ``sources`` holds the unparse of each compiled expression so users
    can inspect what the classifier extracted, mirroring
    ``AnalyzedSignal.instrumented_source``.
    """

    kind: str
    arrays: Tuple[str, ...]
    scalars: Tuple[str, ...]
    carried_vars: Tuple[str, ...]
    sources: Dict[str, str]
    exprs: Dict[str, Callable] = field(repr=False, default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)

    def compatible(self, state) -> bool:
        """Can this spec run against ``state``'s current field layout?

        Checked once per pull before dispatching batches: every array
        the expressions read must exist as a 1-D per-vertex ndarray and
        every scalar must not be an array (a field rebound to something
        else silently falls back to the interpreter).
        """
        for name in self.arrays:
            if name not in state:
                return False
            value = getattr(state, name)
            if not isinstance(value, np.ndarray):
                return False
            if value.ndim != 1 or value.shape[0] != state.num_vertices:
                return False
            if value.dtype.kind == "O":
                return False
        for name in self.scalars:
            if name not in state:
                return False
            value = getattr(state, name)
            if isinstance(value, np.ndarray) and value.ndim != 0:
                return False
        return True


# -- expression compilation ------------------------------------------------

_ALLOWED_BINOPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
)
_ALLOWED_CMPOPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


class _ExprRewriter:
    """Rewrite a UDF expression into its vectorized counterpart.

    Collects the state arrays/scalars it reads along the way and
    rejects (via :class:`_NoMatch`) anything outside the pure-read
    expression grammar documented in the module docstring.
    """

    def __init__(
        self, state_name: str, v_name: str, u_name: Optional[str]
    ) -> None:
        self.state_name = state_name
        self.v_name = v_name
        self.u_name = u_name
        self.arrays: List[str] = []
        self.scalars: List[str] = []

    def rewrite(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, bool)):
                raise _NoMatch("non-numeric constant")
            return ast.Constant(value=node.value)
        if isinstance(node, ast.Name):
            if node.id == self.u_name:
                return ast.Name(id="__u", ctx=ast.Load())
            if node.id == self.v_name:
                return ast.Name(id="__v", ctx=ast.Load())
            raise _NoMatch(f"free variable {node.id!r}")
        if isinstance(node, ast.Attribute):
            return self._state_attr(node, as_scalar=True)
        if isinstance(node, ast.Subscript):
            if not isinstance(node.value, ast.Attribute):
                raise _NoMatch("subscript of non-state value")
            target = self._state_attr(node.value, as_scalar=False)
            index = node.slice
            if not isinstance(index, ast.Name):
                raise _NoMatch("array index must be the loop or vertex var")
            return ast.Subscript(
                value=target, slice=self.rewrite(index), ctx=ast.Load()
            )
        if isinstance(node, ast.BoolOp):
            op = ast.BitAnd() if isinstance(node.op, ast.And) else ast.BitOr()
            out = self.rewrite(node.values[0])
            for value in node.values[1:]:
                out = ast.BinOp(left=out, op=op, right=self.rewrite(value))
            return out
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return ast.UnaryOp(
                    op=ast.Invert(), operand=self.rewrite(node.operand)
                )
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return ast.UnaryOp(
                    op=copy.copy(node.op), operand=self.rewrite(node.operand)
                )
            raise _NoMatch("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BINOPS):
                raise _NoMatch("unsupported binary operator")
            return ast.BinOp(
                left=self.rewrite(node.left),
                op=copy.copy(node.op),
                right=self.rewrite(node.right),
            )
        if isinstance(node, ast.Compare):
            if not all(isinstance(op, _ALLOWED_CMPOPS) for op in node.ops):
                raise _NoMatch("unsupported comparison")
            return ast.Compare(
                left=self.rewrite(node.left),
                ops=[copy.copy(op) for op in node.ops],
                comparators=[self.rewrite(c) for c in node.comparators],
            )
        raise _NoMatch(f"unsupported expression node {type(node).__name__}")

    def _state_attr(self, node: ast.Attribute, as_scalar: bool) -> ast.expr:
        if not (
            isinstance(node.value, ast.Name)
            and node.value.id == self.state_name
        ):
            raise _NoMatch("attribute access on non-state object")
        if as_scalar:
            self.scalars.append(node.attr)
        else:
            self.arrays.append(node.attr)
        return ast.Attribute(
            value=ast.Name(id="__state", ctx=ast.Load()),
            attr=node.attr,
            ctx=ast.Load(),
        )


def _compile_expr(
    expr: ast.expr,
    state_name: str,
    v_name: str,
    u_name: Optional[str],
) -> Tuple[Callable, str, List[str], List[str]]:
    """Compile a UDF expression into ``fn(state, u, v)``.

    ``u_name=None`` forbids the loop variable (thresholds and initial
    values are evaluated outside the neighbor loop).
    """
    rewriter = _ExprRewriter(state_name, v_name, u_name)
    body = rewriter.rewrite(expr)
    func = ast.FunctionDef(
        name="__kernel_expr",
        args=ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg="__state"), ast.arg(arg="__u"), ast.arg(arg="__v")],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        ),
        body=[ast.Return(value=body)],
        decorator_list=[],
        returns=None,
    )
    module = ast.Module(body=[func], type_ignores=[])
    ast.fix_missing_locations(module)
    namespace: Dict[str, object] = {}
    exec(  # noqa: S102 - compiling our own restricted rewrite
        compile(module, filename="<kernel-expr>", mode="exec"), namespace
    )
    return (
        namespace["__kernel_expr"],
        ast.unparse(body),
        rewriter.arrays,
        rewriter.scalars,
    )


# -- shape matching --------------------------------------------------------


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _single_target(stmt: ast.stmt) -> Optional[str]:
    """Name bound by a simple single-target assignment, if any."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return stmt.targets[0].id
    return None


def _emit_arg(stmt: ast.stmt, emit_name: str) -> ast.expr:
    """Argument of an ``emit(<expr>)`` statement, or raise."""
    if (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == emit_name
        and len(stmt.value.args) == 1
        and not stmt.value.keywords
    ):
        return stmt.value.args[0]
    raise _NoMatch("expected a single emit(<expr>) call")


def _plain_if(stmt: ast.stmt) -> ast.If:
    if isinstance(stmt, ast.If) and not stmt.orelse:
        return stmt
    raise _NoMatch("expected an if without else")


def _same_expr(a: ast.expr, b: ast.expr) -> bool:
    return ast.dump(a) == ast.dump(b)


@dataclass
class _Shape:
    """Parsed pieces of a candidate UDF, shared by the matchers."""

    sig: SignalAst
    info: DependencyInfo
    v_name: str
    state_name: str
    emit_name: str
    u_name: str
    pre: List[ast.stmt]
    body: List[ast.stmt]
    post: List[ast.stmt]


def _build_spec(kind: str, shape: _Shape, roles: Dict[str, Tuple[ast.expr, bool]]) -> KernelSpec:
    """Compile every role expression and assemble the spec.

    ``roles`` maps role name to ``(expr, allow_loop_var)``.
    """
    exprs: Dict[str, Callable] = {}
    sources: Dict[str, str] = {}
    arrays: List[str] = []
    scalars: List[str] = []
    for role, (expr, allow_u) in roles.items():
        fn, source, arrs, scs = _compile_expr(
            expr,
            shape.state_name,
            shape.v_name,
            shape.u_name if allow_u else None,
        )
        exprs[role] = fn
        sources[role] = source
        arrays.extend(arrs)
        scalars.extend(scs)
    return KernelSpec(
        kind=kind,
        arrays=tuple(dict.fromkeys(arrays)),
        scalars=tuple(dict.fromkeys(scalars)),
        carried_vars=shape.info.carried_vars,
        sources=sources,
        exprs=exprs,
    )


def _match_first_match(shape: _Shape) -> KernelSpec:
    """``for u in nbrs: if pred(u, v): emit(value); break``"""
    if shape.pre or shape.post or shape.info.carried_vars:
        raise _NoMatch("first-match shape has no pre/post statements")
    if len(shape.body) != 1:
        raise _NoMatch("loop body must be a single if")
    iff = _plain_if(shape.body[0])
    if len(iff.body) != 2 or not isinstance(iff.body[1], ast.Break):
        raise _NoMatch("if body must be emit-then-break")
    emit_expr = _emit_arg(iff.body[0], shape.emit_name)
    return _build_spec(
        FIRST_MATCH_BREAK,
        shape,
        {"predicate": (iff.test, True), "emit": (emit_expr, True)},
    )


def _match_count_to_k(shape: _Shape) -> KernelSpec:
    """Running count with saturation break (K-core's Figure 3b shape)."""
    if len(shape.pre) != 2 or len(shape.post) != 1 or len(shape.body) != 1:
        raise _NoMatch("count shape is init/snapshot + loop + emit-delta")
    cnt = _single_target(shape.pre[0])
    start = _single_target(shape.pre[1])
    if cnt is None or start is None or cnt == start:
        raise _NoMatch("expected counter and snapshot assignments")
    snapshot = shape.pre[1].value
    if not (isinstance(snapshot, ast.Name) and snapshot.id == cnt):
        raise _NoMatch("snapshot must copy the counter")
    if shape.info.carried_vars != (cnt,):
        raise _NoMatch("only the counter may be carried")

    iff = _plain_if(shape.body[0])
    if len(iff.body) != 2:
        raise _NoMatch("predicate body must be increment + saturation test")
    inc, sat = iff.body
    if not (
        isinstance(inc, ast.AugAssign)
        and isinstance(inc.op, ast.Add)
        and isinstance(inc.target, ast.Name)
        and inc.target.id == cnt
        and isinstance(inc.value, ast.Constant)
        and inc.value.value == 1
    ):
        raise _NoMatch("increment must be cnt += 1")
    sat_if = _plain_if(sat)
    if not (
        len(sat_if.body) == 1
        and isinstance(sat_if.body[0], ast.Break)
        and isinstance(sat_if.test, ast.Compare)
        and len(sat_if.test.ops) == 1
        and isinstance(sat_if.test.ops[0], ast.GtE)
        and isinstance(sat_if.test.left, ast.Name)
        and sat_if.test.left.id == cnt
    ):
        raise _NoMatch("saturation must be `if cnt >= k: break`")
    threshold = sat_if.test.comparators[0]

    post_if = _plain_if(shape.post[0])
    if not (
        isinstance(post_if.test, ast.Compare)
        and len(post_if.test.ops) == 1
        and isinstance(post_if.test.ops[0], ast.Gt)
        and isinstance(post_if.test.left, ast.Name)
        and post_if.test.left.id == cnt
        and isinstance(post_if.test.comparators[0], ast.Name)
        and post_if.test.comparators[0].id == start
        and len(post_if.body) == 1
    ):
        raise _NoMatch("tail must be `if cnt > start: emit(cnt - start)`")
    delta = _emit_arg(post_if.body[0], shape.emit_name)
    if not (
        isinstance(delta, ast.BinOp)
        and isinstance(delta.op, ast.Sub)
        and isinstance(delta.left, ast.Name)
        and delta.left.id == cnt
        and isinstance(delta.right, ast.Name)
        and delta.right.id == start
    ):
        raise _NoMatch("emitted value must be the count delta")
    return _build_spec(
        COUNT_TO_K_BREAK,
        shape,
        {
            "predicate": (iff.test, True),
            "threshold": (threshold, False),
            "init": (shape.pre[0].value, False),
        },
    )


def _match_full_scan_sum(shape: _Shape) -> KernelSpec:
    """Unconditional sum fold with delta emit (PageRank's shape)."""
    if len(shape.pre) != 2 or len(shape.post) != 1 or len(shape.body) != 1:
        raise _NoMatch("sum shape is init/snapshot + fold + emit-delta")
    total = _single_target(shape.pre[0])
    start = _single_target(shape.pre[1])
    if total is None or start is None or total == start:
        raise _NoMatch("expected accumulator and snapshot assignments")
    snapshot = shape.pre[1].value
    if not (isinstance(snapshot, ast.Name) and snapshot.id == total):
        raise _NoMatch("snapshot must copy the accumulator")
    if shape.info.carried_vars != (total,):
        raise _NoMatch("only the accumulator may be carried")
    fold = shape.body[0]
    if not (
        isinstance(fold, ast.AugAssign)
        and isinstance(fold.op, ast.Add)
        and isinstance(fold.target, ast.Name)
        and fold.target.id == total
    ):
        raise _NoMatch("fold must be `total += term`")
    post_if = _plain_if(shape.post[0])
    if not (
        isinstance(post_if.test, ast.Compare)
        and len(post_if.test.ops) == 1
        and isinstance(post_if.test.ops[0], ast.Gt)
        and isinstance(post_if.test.left, ast.Name)
        and post_if.test.left.id == total
        and isinstance(post_if.test.comparators[0], ast.Name)
        and post_if.test.comparators[0].id == start
        and len(post_if.body) == 1
    ):
        raise _NoMatch("tail must be `if total > start: emit(total - start)`")
    delta = _emit_arg(post_if.body[0], shape.emit_name)
    if not (
        isinstance(delta, ast.BinOp)
        and isinstance(delta.op, ast.Sub)
        and isinstance(delta.left, ast.Name)
        and delta.left.id == total
        and isinstance(delta.right, ast.Name)
        and delta.right.id == start
    ):
        raise _NoMatch("emitted value must be the sum delta")
    return _build_spec(
        FULL_SCAN_SUM,
        shape,
        {"term": (fold.value, True), "init": (shape.pre[0].value, False)},
    )


def _match_full_scan_min(shape: _Shape) -> KernelSpec:
    """Minimum fold with improvement emit (label-propagation CC)."""
    if len(shape.pre) != 1 or len(shape.post) != 1 or len(shape.body) != 1:
        raise _NoMatch("min shape is init + fold + emit-if-improved")
    best = _single_target(shape.pre[0])
    if best is None:
        raise _NoMatch("expected a fold-variable assignment")
    if shape.info.carried_vars != (best,):
        raise _NoMatch("only the fold variable may be carried")
    init_expr = shape.pre[0].value
    iff = _plain_if(shape.body[0])
    if not (
        isinstance(iff.test, ast.Compare)
        and len(iff.test.ops) == 1
        and isinstance(iff.test.ops[0], ast.Lt)
        and isinstance(iff.test.comparators[0], ast.Name)
        and iff.test.comparators[0].id == best
        and len(iff.body) == 1
    ):
        raise _NoMatch("fold must be `if key < best: best = key`")
    assign = iff.body[0]
    if not (
        _single_target(assign) == best
        and _same_expr(assign.value, iff.test.left)
    ):
        raise _NoMatch("fold must assign the compared key")
    post_if = _plain_if(shape.post[0])
    if not (
        isinstance(post_if.test, ast.Compare)
        and len(post_if.test.ops) == 1
        and isinstance(post_if.test.ops[0], ast.Lt)
        and isinstance(post_if.test.left, ast.Name)
        and post_if.test.left.id == best
        and _same_expr(post_if.test.comparators[0], init_expr)
        and len(post_if.body) == 1
    ):
        raise _NoMatch("tail must be `if best < init: emit(best)`")
    emitted = _emit_arg(post_if.body[0], shape.emit_name)
    if not (isinstance(emitted, ast.Name) and emitted.id == best):
        raise _NoMatch("emitted value must be the fold result")
    return _build_spec(
        FULL_SCAN_MIN,
        shape,
        {"term": (iff.test.left, True), "init": (init_expr, False)},
    )


_MATCHERS = (
    _match_first_match,
    _match_count_to_k,
    _match_full_scan_sum,
    _match_full_scan_min,
)


def classify_kernel(
    sig: SignalAst, info: DependencyInfo
) -> Optional[KernelSpec]:
    """Classify a parsed signal UDF against the known kernel shapes.

    Returns ``None`` whenever the UDF falls outside the grammar, has
    side effects (per :func:`repro.analysis.purity.signal_effects`),
    or anything at all goes wrong — classification is an optimization
    hint and must never fail an analysis that would otherwise succeed.
    """
    try:
        loop = sig.loop
        if loop is None or loop.orelse or len(sig.params) < 4:
            return None
        if not isinstance(loop.target, ast.Name):
            return None
        if signal_effects(sig):
            return None
        shape = _Shape(
            sig=sig,
            info=info,
            v_name=sig.params[0],
            state_name=sig.params[2],
            emit_name=sig.params[3],
            u_name=loop.target.id,
            pre=[
                stmt
                for stmt in sig.func.body[: sig.loop_index]
                if not _is_docstring(stmt)
            ],
            body=list(loop.body),
            post=list(sig.func.body[sig.loop_index + 1 :]),
        )
        for matcher in _MATCHERS:
            try:
                return matcher(shape)
            except _NoMatch:
                continue
        return None
    except Exception:  # pragma: no cover - defensive: never break analysis
        return None


# -- push signals and slots --------------------------------------------------


def _body(sig: SignalAst) -> List[ast.stmt]:
    func = sig.func
    if (
        len(sig.params) != 3
        or func.args.vararg is not None
        or func.args.kwarg is not None
        or func.args.kwonlyargs
        or func.args.defaults
        or func.decorator_list
    ):
        raise _NoMatch("expected a plain three-parameter function")
    return [stmt for stmt in func.body if not _is_docstring(stmt)]


def _is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _const_bool(node: Optional[ast.expr]) -> bool:
    """Value of a literal ``True``/``False``, or raise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    raise _NoMatch("expected a literal True/False")


def _return_value(stmt: ast.stmt) -> ast.expr:
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        return stmt.value
    raise _NoMatch("expected return <expr>")


def _spec(
    kind: str,
    sig: SignalAst,
    roles: Dict[str, ast.expr],
    u_name: str,
    v_name: str,
    params: Dict[str, Any],
    written: Tuple[str, ...] = (),
) -> KernelSpec:
    exprs: Dict[str, Callable] = {}
    sources: Dict[str, str] = {}
    arrays: List[str] = list(written)
    scalars: List[str] = []
    for role, expr in roles.items():
        fn, source, arrs, scs = _compile_expr(expr, sig.params[2], v_name, u_name)
        if set(arrs) & set(written):
            raise _NoMatch("right-hand side reads an array the slot writes")
        exprs[role] = fn
        sources[role] = source
        arrays.extend(arrs)
        scalars.extend(scs)
    return KernelSpec(
        kind=kind,
        arrays=tuple(dict.fromkeys(arrays)),
        scalars=tuple(dict.fromkeys(scalars)),
        carried_vars=(),
        sources=sources,
        exprs=exprs,
        params=params,
    )


def _match_push(sig: SignalAst) -> KernelSpec:
    """``return e`` / ``if p: return None; return e`` / ``e if p else None``."""
    if signal_effects(sig):
        raise _NoMatch("push signal has side effects")
    body = _body(sig)
    u_name, v_name = sig.params[0], sig.params[1]
    roles: Dict[str, ast.expr] = {}
    if len(body) == 2:
        iff = _plain_if(body[0])
        if not (
            len(iff.body) == 1
            and isinstance(iff.body[0], ast.Return)
            and _is_none(iff.body[0].value)
        ):
            raise _NoMatch("guard must be `if <pred>: return None`")
        roles["skip"] = iff.test
        value = _return_value(body[1])
    elif len(body) == 1:
        value = _return_value(body[0])
        if isinstance(value, ast.IfExp):
            if not _is_none(value.orelse):
                raise _NoMatch("conditional push must fall back to None")
            roles["keep"] = value.test
            value = value.body
    else:
        raise _NoMatch("push signal is one guarded return")
    roles["value"] = value
    return _spec(PUSH_GATHER, sig, roles, u_name, v_name, {})


def _vertex_write(node: ast.expr, sig: SignalAst) -> str:
    """Array name of a ``s.<name>[v]`` target, or raise."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Name)
        and node.slice.id == sig.params[0]
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == sig.params[2]
    ):
        return node.value.attr
    raise _NoMatch("expected s.<array>[v]")


def _is_value(node: ast.expr, sig: SignalAst) -> bool:
    return isinstance(node, ast.Name) and node.id == sig.params[1]


def _match_slot_sum(sig: SignalAst, body: List[ast.stmt]) -> KernelSpec:
    """``s.x[v] += value; return <bool>``"""
    if len(body) != 2:
        raise _NoMatch("sum slot is fold + return")
    fold = body[0]
    if not (
        isinstance(fold, ast.AugAssign)
        and isinstance(fold.op, ast.Add)
        and _is_value(fold.value, sig)
    ):
        raise _NoMatch("fold must be `s.x[v] += value`")
    target = _vertex_write(fold.target, sig)
    returns = _const_bool(_return_value(body[1]))
    return _spec(SLOT_SUM, sig, {}, sig.params[1], sig.params[0],
                 {"target": target, "returns": returns}, (target,))


def _match_slot_min(sig: SignalAst, body: List[ast.stmt]) -> KernelSpec:
    """``if value < s.x[v]: s.x[v] = value; return <bool>`` then ``return False``"""
    if len(body) != 2 or _const_bool(_return_value(body[1])):
        raise _NoMatch("min slot is relax + `return False`")
    iff = _plain_if(body[0])
    test = iff.test
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Lt)
        and _is_value(test.left, sig)
        and len(iff.body) == 2
        and isinstance(iff.body[0], ast.Assign)
        and len(iff.body[0].targets) == 1
        and _is_value(iff.body[0].value, sig)
    ):
        raise _NoMatch("relax must be `if value < s.x[v]: s.x[v] = value`")
    target = _vertex_write(test.comparators[0], sig)
    if _vertex_write(iff.body[0].targets[0], sig) != target:
        raise _NoMatch("relax must write the compared array")
    returns = _const_bool(_return_value(iff.body[1]))
    return _spec(SLOT_MIN, sig, {}, sig.params[1], sig.params[0],
                 {"target": target, "returns": returns}, (target,))


def _match_slot_first(sig: SignalAst, body: List[ast.stmt]) -> KernelSpec:
    """``if s.flag[v]: return False`` (or ``not``), writes, ``return <bool>``"""
    if len(body) < 3:
        raise _NoMatch("first-update slot is guard + writes + return")
    iff = _plain_if(body[0])
    if not (
        len(iff.body) == 1
        and _const_bool(_return_value(iff.body[0])) is False
    ):
        raise _NoMatch("guard must be `if s.flag[v]: return False`")
    test = iff.test
    negated = isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
    flag = _vertex_write(test.operand if negated else test, sig)
    writes: List[Tuple[str, str]] = []
    roles: Dict[str, ast.expr] = {}
    closes = False
    for i, stmt in enumerate(body[1:-1]):
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            raise _NoMatch("writes must be single-target assignments")
        name = _vertex_write(stmt.targets[0], sig)
        if name == flag:
            # the guard must hold after the flag write, or a repeated
            # destination would apply twice
            closes = _const_bool(stmt.value) is not negated
        role = f"write{i}"
        writes.append((name, role))
        roles[role] = stmt.value
    if not closes:
        raise _NoMatch("writes must set the guard flag")
    returns = _const_bool(_return_value(body[-1]))
    written = tuple(dict.fromkeys(name for name, _ in writes))
    return _spec(
        SLOT_FIRST, sig, roles, sig.params[1], sig.params[0],
        {"flag": flag, "negated": negated, "writes": tuple(writes),
         "returns": returns},
        written,
    )


def _match_slot(sig: SignalAst) -> KernelSpec:
    body = _body(sig)
    for matcher in (_match_slot_sum, _match_slot_min, _match_slot_first):
        try:
            return matcher(sig, body)
        except _NoMatch:
            continue
    raise _NoMatch("slot is outside the fold grammars")


def _classify_fn(fn: Callable, matcher) -> Optional[KernelSpec]:
    from repro.analysis.ast_analysis import parse_signal

    try:
        sig = parse_signal(fn)
        # getsource of a lambda yields its enclosing line, which may
        # parse as some other function
        if sig.loop is not None or sig.func.name != fn.__name__:
            return None
        return matcher(sig)
    except Exception:
        # _NoMatch, unparseable source, or anything unexpected: the
        # interpreter runs the UDF
        return None


def classify_push(fn: Callable) -> Optional[KernelSpec]:
    """Classify a push signal ``(u, v, s)`` as ``push_gather``, or None."""
    return _classify_fn(fn, _match_push)


def classify_slot(fn: Callable) -> Optional[KernelSpec]:
    """Classify a slot ``(v, value, s)`` as a slot fold kind, or None."""
    return _classify_fn(fn, _match_slot)
