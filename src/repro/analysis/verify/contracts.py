"""Kernel-contract certification: re-derive what the classifier assumed.

The classifier in :mod:`repro.analysis.kernelspec` pattern-matches a
UDF against its shapes (four pull-signal shapes, the push gather and
three slot folds) and, on a match, the engines execute a batched NumPy
kernel *instead of* the UDF.  That substitution is only sound if
the UDF really has the properties the shape's kernel exploits — pure
reads, order-insensitive folds, declared effect sets.  This module
re-derives those properties **independently** from the abstract
interpretation summary (:mod:`repro.analysis.verify.interp`) and
cross-checks every classification: :func:`certify_spec` either returns
the summary it certified against, or raises
:class:`~repro.errors.KernelSoundnessError` carrying the violated
obligation id and the program point (``file:line``) it was refuted at.

Obligations common to every shape:

``purity``           no side effects or nondeterministic calls
``carried-exact``    the spec's carried variables equal the analyzer's
``reads-declared``   every state field read appears in the spec's
                     ``arrays``/``scalars`` (the kernel preloads them)
``index-domain``     array reads index only the loop variable or the
                     destination vertex
``emit-arity``       every emit call passes exactly one positional arg
``emit-numeric``     every emitted value has a numeric abstract type

The per-edge and per-update kinds (``push_gather`` and the slot folds)
have no neighbor loop and no emit; their contracts replace the common
set with their own read, write and return obligations.

Per-shape obligations (each contract documents its own).  The spec is
an explicit argument so mutation tests can pair a tampered UDF with a
pristine classification — certification never trusts the classifier it
is checking.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.ast_analysis import DependencyInfo, SignalAst, _walk_same_scope
from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
    PUSH_GATHER,
    SLOT_FIRST,
    SLOT_KINDS,
    SLOT_MIN,
    SLOT_SUM,
    KernelSpec,
)
from repro.analysis.verify.domain import FoldKind, is_numeric
from repro.analysis.verify.interp import UdfSummary, summarize
from repro.errors import KernelSoundnessError

__all__ = ["CONTRACTS", "certify_spec", "contract_kinds", "uncontracted_kernels"]


class _Certifier:
    """Shared obligation helpers bound to one (summary, spec) pair."""

    def __init__(self, summary: UdfSummary, spec: KernelSpec) -> None:
        self.summary = summary
        self.spec = spec
        self.sig = summary.sig

    def fail(self, message: str, obligation: str, node: Optional[ast.AST]) -> None:
        point = self.sig.location(node) if node is not None else ""
        raise KernelSoundnessError(
            message, obligation=obligation, program_point=point
        )

    # -- common obligations --------------------------------------------

    def check_common(self) -> None:
        s = self.summary
        for effect in s.effects:
            self.fail(
                f"UDF has side effects ({effect.kind}: {effect.detail})",
                "purity",
                effect.node,
            )
        if tuple(self.spec.carried_vars) != tuple(s.info.carried_vars):
            self.fail(
                f"spec carries {tuple(self.spec.carried_vars)} but the "
                f"dataflow analysis derives {tuple(s.info.carried_vars)}",
                "carried-exact",
                s.sig.loop,
            )
        v_name = s.sig.params[0] if s.sig.params else None
        self.check_reads((s.info.loop_var, v_name))
        for site in s.emits:
            if len(site.node.args) != 1 or site.node.keywords:
                self.fail(
                    "emit must be called with exactly one positional "
                    "argument",
                    "emit-arity",
                    site.node,
                )
            t = s.type_of_expr(site.node.args[0])
            if not is_numeric(t):
                self.fail(
                    f"emitted value has abstract type {t!r}; kernels "
                    "batch numeric emissions only",
                    "emit-numeric",
                    site.node,
                )

    def check_reads(self, indices: Tuple[Optional[str], ...]) -> None:
        """``reads-declared`` and ``index-domain`` over every state read."""
        s = self.summary
        arrays = set(self.spec.arrays)
        scalars = set(self.spec.scalars)
        for read in s.state_reads:
            declared = arrays if read.kind == "array" else scalars
            if read.attr not in declared:
                self.fail(
                    f"UDF reads state {read.kind} {read.attr!r} that the "
                    f"spec does not declare (arrays={self.spec.arrays}, "
                    f"scalars={self.spec.scalars})",
                    "reads-declared",
                    read.node,
                )
            if read.kind == "array" and read.index not in indices:
                self.fail(
                    f"array read {read.attr!r} indexed by "
                    f"{read.index or '<expr>'!s}; kernels can only batch "
                    f"reads indexed by {' or '.join(filter(None, indices))}",
                    "index-domain",
                    read.node,
                )

    def no_calls(self) -> None:
        """``no-calls``: the kernel evaluates expressions as array
        programs, so a call (whose effects the purity scan cannot see
        through, e.g. a module-level list's ``append``) has no batched
        equivalent."""
        for node in _walk_same_scope(self.sig.func):
            if isinstance(node, ast.Call):
                self.fail(
                    f"{self.spec.kind} kernels batch pure expressions; "
                    f"found a call {ast.unparse(node)}",
                    "no-calls",
                    node,
                )

    def returns(self) -> List[ast.Return]:
        return [
            node for node in _walk_same_scope(self.sig.func)
            if isinstance(node, ast.Return)
        ]

    # -- shared shape fragments ----------------------------------------

    def single_fold(self, expected: Tuple[str, ...], obligation: str) -> str:
        """Exactly one carried variable with one of ``expected`` folds."""
        s = self.summary
        if len(s.info.carried_vars) != 1:
            self.fail(
                f"shape {self.spec.kind!r} requires exactly one carried "
                f"variable, found {tuple(s.info.carried_vars)}",
                obligation,
                s.sig.loop,
            )
        var = s.info.carried_vars[0]
        fold = s.fold_of(var)
        if fold not in expected:
            site = (s.fold_sites.get(var) or [s.sig.loop])[0]
            self.fail(
                f"carried variable {var!r} folds as {fold!r} inside the "
                f"loop; shape {self.spec.kind!r} requires "
                f"{' or '.join(repr(e) for e in expected)} "
                "(an order-insensitive reduction)",
                obligation,
                site,
            )
        return var

    def no_break(self) -> None:
        s = self.summary
        if s.breaks:
            self.fail(
                f"shape {self.spec.kind!r} scans every neighbor; a break "
                "makes the fold depend on scan order and machine count",
                "no-break",
                s.breaks[0].node,
            )

    def single_post_emit(self, obligation: str):
        """Exactly one emit, post-loop and guarded; returns the site."""
        s = self.summary
        sites = list(s.emits)
        if len(sites) != 1 or sites[0].region != "post":
            node = sites[0].node if sites else s.sig.loop
            self.fail(
                f"shape {self.spec.kind!r} emits exactly once, after the "
                f"loop; found {len(sites)} emit(s) "
                f"({', '.join(x.region for x in sites) or 'none'})",
                obligation,
                node,
            )
        site = sites[0]
        if not site.guarded:
            self.fail(
                "the post-loop emit must be guarded; an unconditional "
                "emit fires once per machine chunk and double-delivers",
                obligation,
                site.node,
            )
        return site

    def snapshot_of(self, var: str) -> Optional[str]:
        """Name of a pre-loop snapshot of ``var`` (``snap = var``)."""
        s = self.summary
        if s.sig.loop_index < 0:
            return None
        for stmt in s.sig.func.body[: s.sig.loop_index]:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id == var
            ):
                snap = stmt.targets[0].id
                if s.fold_of(snap) == FoldKind.NONE:
                    return snap
        return None

    def check_delta_emit(self, var: str, obligation: str) -> None:
        """Post emit is ``if var > snap: emit(var - snap)``."""
        site = self.single_post_emit(obligation)
        snap = self.snapshot_of(var)
        if snap is None:
            self.fail(
                f"no pre-loop snapshot of {var!r} found (``start = "
                f"{var}`` before the loop, unmodified inside it); the "
                "delta idiom needs one to avoid double-counting on "
                "resume",
                obligation,
                self.sig.loop,
            )
        arg = site.node.args[0]
        if not (
            isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.Sub)
            and isinstance(arg.left, ast.Name)
            and arg.left.id == var
            and isinstance(arg.right, ast.Name)
            and arg.right.id == snap
        ):
            self.fail(
                f"emitted value must be the delta {var} - {snap}; "
                f"found emit({ast.unparse(arg)})",
                obligation,
                site.node,
            )
        guard = site.guards[-1]
        if not (
            isinstance(guard, ast.Compare)
            and len(guard.ops) == 1
            and isinstance(guard.ops[0], ast.Gt)
            and isinstance(guard.left, ast.Name)
            and guard.left.id == var
            and isinstance(guard.comparators[0], ast.Name)
            and guard.comparators[0].id == snap
        ):
            self.fail(
                f"the delta emit must be guarded by {var} > {snap} so a "
                "resumed machine emits nothing when it added nothing",
                obligation,
                site.node,
            )


# -- per-shape contracts -----------------------------------------------


def _certify_first_match(c: _Certifier) -> None:
    """``first_match_break``: scan to the first satisfying neighbor.

    Obligations: ``no-carried`` (no data dependency — resuming from a
    predecessor needs nothing but the break bit), ``no-folds`` (no
    variable is updated across iterations), ``break-present`` and
    ``emit-then-break`` (exactly one guarded in-loop emit, immediately
    followed by the break, so at most one value is ever delivered)."""
    s = c.summary
    if s.info.carried_vars:
        c.fail(
            f"first-match kernels carry no data, but "
            f"{tuple(s.info.carried_vars)} is loop-carried",
            "no-carried",
            s.sig.loop,
        )
    for var, fold in sorted(s.folds.items()):
        if fold != FoldKind.NONE:
            c.fail(
                f"variable {var!r} is updated inside the loop "
                f"({fold!r}); the first-match kernel evaluates a pure "
                "predicate per neighbor and cannot reproduce it",
                "no-folds",
                (s.fold_sites.get(var) or [s.sig.loop])[0],
            )
    if not s.breaks:
        c.fail(
            "first-match kernels stop at the first hit; this UDF never "
            "breaks",
            "break-present",
            s.sig.loop,
        )
    loop_emits = [e for e in s.emits if e.region == "loop"]
    other = [e for e in s.emits if e.region != "loop"]
    if other:
        c.fail(
            "first-match kernels emit only inside the loop; found an "
            f"emit in the {other[0].region!r} region",
            "emit-then-break",
            other[0].node,
        )
    if len(loop_emits) != 1:
        c.fail(
            f"first-match kernels emit exactly once; found "
            f"{len(loop_emits)} in-loop emit(s)",
            "emit-then-break",
            loop_emits[0].node if loop_emits else s.sig.loop,
        )
    site = loop_emits[0]
    if not site.guarded or not site.followed_by_break:
        c.fail(
            "the in-loop emit must be guarded and immediately followed "
            "by break (emit-then-break); otherwise the kernel's "
            "first-hit semantics diverge from the UDF",
            "emit-then-break",
            site.node,
        )


def _certify_count_to_k(c: _Certifier) -> None:
    """``count_to_k_break``: saturating counter (K-core's shape).

    Obligations: ``fold-count`` (the single carried variable is a pure
    ``+= 1`` counter — the kernel reproduces it with a vectorized
    cumulative sum), ``saturation-guard`` (every break fires on
    ``cnt >= T`` with ``T`` loop-invariant, so saturation commutes with
    chunking), ``delta-emit`` (the guarded post-loop delta idiom)."""
    s = c.summary
    var = c.single_fold((FoldKind.COUNT,), "fold-count")
    if not s.breaks:
        c.fail(
            "count-to-k kernels saturate via break; this UDF never "
            "breaks (classify as full_scan_sum instead)",
            "saturation-guard",
            s.sig.loop,
        )
    for brk in s.breaks:
        guard = brk.guard
        ok = (
            guard is not None
            and isinstance(guard, ast.Compare)
            and len(guard.ops) == 1
            and isinstance(guard.ops[0], ast.GtE)
            and isinstance(guard.left, ast.Name)
            and guard.left.id == var
            and s.is_loop_invariant(guard.comparators[0])
        )
        if not ok:
            c.fail(
                f"break must be guarded by {var} >= <loop-invariant "
                "threshold>; anything else breaks the kernel's "
                "saturation arithmetic",
                "saturation-guard",
                brk.node,
            )
    c.check_delta_emit(var, "delta-emit")


def _certify_full_scan_sum(c: _Certifier) -> None:
    """``full_scan_sum``: commutative accumulation over every neighbor.

    Obligations: ``fold-sum`` (the carried variable is a count/sum
    fold — the kernel computes it with one vectorized reduction, in a
    different order than the UDF's scan, which is only sound for
    commutative/associative updates), ``no-break`` (a break would make
    the partial sums chunk-dependent), ``delta-emit``."""
    var = c.single_fold((FoldKind.SUM, FoldKind.COUNT), "fold-sum")
    c.no_break()
    c.check_delta_emit(var, "delta-emit")


def _certify_full_scan_min(c: _Certifier) -> None:
    """``full_scan_min``: idempotent extremum fold (CC's shape).

    Obligations: ``fold-min`` (the carried variable is a min fold —
    idempotent and commutative, so the kernel's vectorized minimum
    matches any scan order), ``no-break``, ``improvement-emit`` (one
    post-loop emit of the fold variable, guarded by ``best < init``
    with ``init`` the same expression the fold started from, so an
    unimproved vertex emits nothing)."""
    s = c.summary
    var = c.single_fold((FoldKind.MIN,), "fold-min")
    c.no_break()
    site = c.single_post_emit("improvement-emit")
    arg = site.node.args[0]
    if not (isinstance(arg, ast.Name) and arg.id == var):
        c.fail(
            f"the improvement emit must deliver the fold variable "
            f"{var!r}; found emit({ast.unparse(arg)})",
            "improvement-emit",
            site.node,
        )
    init_expr = None
    if s.sig.loop_index >= 0:
        for stmt in s.sig.func.body[: s.sig.loop_index]:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == var
            ):
                init_expr = stmt.value
    if init_expr is None:
        c.fail(
            f"no pre-loop initialization of {var!r} found",
            "improvement-emit",
            s.sig.loop,
        )
    guard = site.guards[-1]
    if not (
        isinstance(guard, ast.Compare)
        and len(guard.ops) == 1
        and isinstance(guard.ops[0], ast.Lt)
        and isinstance(guard.left, ast.Name)
        and guard.left.id == var
        and ast.dump(guard.comparators[0]) == ast.dump(init_expr)
    ):
        c.fail(
            f"the improvement emit must be guarded by {var} < "
            f"{ast.unparse(init_expr)} (the fold's initial value); an "
            "unimproved vertex must emit nothing",
            "improvement-emit",
            site.node,
        )


def _is_none(node: Optional[ast.expr]) -> bool:
    return node is None or (
        isinstance(node, ast.Constant) and node.value is None
    )


def _certify_push_gather(c: _Certifier) -> None:
    """``push_gather``: a pure map from one out-edge ``(u, v)`` to a
    value or None.

    Obligations: ``purity``, ``no-loop`` (no neighbor loop and no
    emit: the engine calls the signal once per edge, and the kernel
    evaluates it once per edge), ``reads-declared`` and
    ``index-domain`` (array reads indexed by ``u`` or ``v`` only),
    ``no-calls``,
    ``single-value`` (exactly one return delivers a value — the
    function's last statement, optionally ``<value> if <pred> else
    None`` — and every other return is ``return None``) and
    ``value-numeric``."""
    s = c.summary
    for effect in s.effects:
        c.fail(
            f"push signal has side effects ({effect.kind}: "
            f"{effect.detail})",
            "purity",
            effect.node,
        )
    if s.sig.loop is not None or s.emits:
        c.fail(
            "push kernels map one edge at a time; this UDF loops over "
            "neighbors or emits",
            "no-loop",
            s.sig.loop or s.emits[0].node,
        )
    c.check_reads(tuple(s.sig.params[:2]))
    c.no_calls()
    valued = [r for r in c.returns() if not _is_none(r.value)]
    last = s.sig.func.body[-1]
    if len(valued) != 1 or valued[0] is not last:
        c.fail(
            "a push signal returns exactly one value, as its last "
            f"statement; found {len(valued)} value-returning return(s)",
            "single-value",
            valued[0] if valued else s.sig.func,
        )
    value = last.value
    if isinstance(value, ast.IfExp):
        if not _is_none(value.orelse):
            c.fail(
                "a conditional push must fall back to None",
                "single-value",
                last,
            )
        value = value.body
    t = s.type_of_expr(value)
    if not is_numeric(t):
        c.fail(
            f"pushed value has abstract type {t!r}; kernels batch "
            "numeric values only",
            "value-numeric",
            last,
        )


def _first_stmt(sig: SignalAst) -> ast.stmt:
    """First statement after an optional docstring."""
    body = sig.func.body
    first = body[0]
    if (
        len(body) > 1
        and isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return body[1]
    return first


def _vertex_target(node: ast.AST, sig: SignalAst) -> Optional[str]:
    """Array name of a ``s.<name>[v]`` expression, else None."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Name)
        and node.slice.id == sig.params[0]
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == sig.params[2]
    ):
        return node.value.attr
    return None


def _slot_writes(c: _Certifier) -> Dict[str, List[ast.AST]]:
    """Written array -> write statements; every effect must be one."""
    sig = c.sig
    writes: Dict[str, List[ast.AST]] = {}
    for node in _walk_same_scope(sig.func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = _vertex_target(target, sig)
                if name is None:
                    c.fail(
                        f"slot writes {ast.unparse(target)}; slot folds "
                        "write only s.<array>[v]",
                        "slot-writes",
                        node,
                    )
                writes.setdefault(name, []).append(node)
    for effect in c.summary.effects:
        if effect.kind != "state-mutation" or _vertex_target(
            effect.node, sig
        ) is None:
            c.fail(
                f"slot has side effects beyond its vertex writes "
                f"({effect.kind}: {effect.detail})",
                "purity",
                effect.node,
            )
    return writes


def _certify_slot(c: _Certifier) -> None:
    """Slot folds: ``slot_sum``, ``slot_min``, ``slot_first``.

    Common obligations: ``purity`` (no effect but writes through
    ``s.<array>[v]`` — ``slot-writes``), ``writes-declared`` (the
    written arrays are exactly the spec's), ``reads-declared`` and
    ``index-domain`` (reads indexed by ``v`` or the value),
    ``no-calls``, and
    ``returns-constant`` (every return is a literal bool, the last
    statement among them).

    Per kind: ``fold-sum`` (the only write is ``s.x[v] += value``);
    ``strict-min`` (the only write is ``s.x[v] = value`` under ``if
    value < s.x[v]``); ``guard-closes`` (the first statement is ``if
    s.flag[v]: return False``, or its ``not`` form, and a literal write
    to the flag makes the guard hold afterwards, so a repeated vertex
    applies once) and ``write-read-disjoint`` (no right-hand side reads
    a written array — the kernel evaluates them all before writing)."""
    spec, sig = c.spec, c.sig
    writes = _slot_writes(c)
    if spec.kind == SLOT_FIRST:
        declared = {name for name, _ in spec.params.get("writes", ())}
    else:
        declared = {spec.params.get("target")}
    if set(writes) != declared:
        c.fail(
            f"slot writes {sorted(writes)} but the spec declares "
            f"{sorted(n for n in declared if n)}",
            "writes-declared",
            sig.func,
        )
    c.check_reads(tuple(sig.params[:2]))
    c.no_calls()
    returns = c.returns()
    for ret in returns:
        if not (
            isinstance(ret.value, ast.Constant)
            and isinstance(ret.value.value, bool)
        ):
            c.fail(
                "slot folds return literal True/False only",
                "returns-constant",
                ret,
            )
    if not isinstance(sig.func.body[-1], ast.Return):
        c.fail(
            "a slot fold must end with its return",
            "returns-constant",
            sig.func,
        )
    value = sig.params[1]
    nodes = [node for stmts in writes.values() for node in stmts]
    if spec.kind == SLOT_SUM:
        node = nodes[0]
        if not (
            len(nodes) == 1
            and isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.value, ast.Name)
            and node.value.id == value
        ):
            c.fail(
                "a sum fold's only write is s.x[v] += value",
                "fold-sum",
                node,
            )
    elif spec.kind == SLOT_MIN:
        node = nodes[0]
        guard = _first_stmt(sig)
        target = spec.params.get("target")
        if not (
            len(nodes) == 1
            and isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and node.value.id == value
            and isinstance(guard, ast.If)
            and node in guard.body
            and isinstance(guard.test, ast.Compare)
            and len(guard.test.ops) == 1
            and isinstance(guard.test.ops[0], ast.Lt)
            and isinstance(guard.test.left, ast.Name)
            and guard.test.left.id == value
            and _vertex_target(guard.test.comparators[0], sig) == target
        ):
            c.fail(
                "a min fold's only write is s.x[v] = value under "
                "if value < s.x[v]",
                "strict-min",
                node,
            )
    else:
        _certify_first_update(c, writes)


def _certify_first_update(
    c: _Certifier, writes: Dict[str, List[ast.AST]]
) -> None:
    sig = c.sig
    guard = _first_stmt(sig)
    test = guard.test if isinstance(guard, ast.If) else None
    negated = isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
    flag = _vertex_target(test.operand if negated else test, sig)
    if not (
        flag is not None
        and len(guard.body) == 1
        and isinstance(guard.body[0], ast.Return)
        and isinstance(guard.body[0].value, ast.Constant)
        and guard.body[0].value.value is False
    ):
        c.fail(
            "a first-update slot starts with if s.flag[v]: return False",
            "guard-closes",
            guard,
        )
    closes = [
        node for node in writes.get(flag, ())
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and bool(node.value.value) is not negated
    ]
    if not closes:
        c.fail(
            f"no literal write to {flag!r} makes the guard hold; a "
            "repeated vertex would apply twice",
            "guard-closes",
            guard,
        )
    for node in (n for stmts in writes.values() for n in stmts):
        for sub in ast.walk(node.value):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == sig.params[2]
                and sub.attr in writes
            ):
                c.fail(
                    f"right-hand side reads {sub.attr!r}, which the slot "
                    "writes; batched writes would see a different value",
                    "write-read-disjoint",
                    node,
                )


CONTRACTS: Dict[str, Callable[[_Certifier], None]] = {
    FIRST_MATCH_BREAK: _certify_first_match,
    COUNT_TO_K_BREAK: _certify_count_to_k,
    FULL_SCAN_SUM: _certify_full_scan_sum,
    FULL_SCAN_MIN: _certify_full_scan_min,
    PUSH_GATHER: _certify_push_gather,
    **{kind: _certify_slot for kind in SLOT_KINDS},
}

#: kinds whose contract stands alone (no neighbor loop, no emit)
_LOOPLESS = (PUSH_GATHER,) + SLOT_KINDS


def contract_kinds() -> Tuple[str, ...]:
    """Kernel kinds the certifier has a contract for, sorted."""
    return tuple(sorted(CONTRACTS))


def uncontracted_kernels() -> Tuple[str, ...]:
    """Registered kernel kinds with *no* certification contract.

    A kernel registered behind the engines' dispatch that the
    certifier cannot check is a soundness hole — ``repro verify``
    surfaces these as warnings.
    """
    from repro.kernels.registry import available_kernels

    return tuple(k for k in available_kernels() if k not in CONTRACTS)


def certify_spec(
    sig: SignalAst,
    info: DependencyInfo,
    spec: KernelSpec,
    summary: Optional[UdfSummary] = None,
) -> UdfSummary:
    """Certify that ``spec`` is a sound classification of ``sig``.

    Raises :class:`~repro.errors.KernelSoundnessError` (with the
    violated obligation and a cited program point) when the UDF's
    abstractly-derived effects exceed the shape's contract; returns the
    :class:`UdfSummary` it certified against otherwise.  No UDF or
    kernel code is executed in either direction.
    """
    if summary is None:
        summary = summarize(sig, info)
    certifier = _Certifier(summary, spec)
    contract = CONTRACTS.get(spec.kind)
    if contract is None:
        certifier.fail(
            f"no certification contract for kernel kind {spec.kind!r}",
            "unknown-kind",
            sig.func,
        )
    if spec.kind not in _LOOPLESS:
        certifier.check_common()
    contract(certifier)
    return summary
