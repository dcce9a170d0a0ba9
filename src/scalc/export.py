"""SMT-LIB 2 export of verification conditions over unbounded integers.

The emitted document asserts the negation of the correctness condition, so
`unsat` from a solver means the condition is valid.  Programs are encoded
in single-assignment style: every assignment introduces a fresh constant
`v!n`, branches merge through `ite` terms, and a declaration introduces an
unconstrained fresh constant (havoc).  The whole condition is a single
`(assert ...)` followed by `(check-sat)` and the text is byte-deterministic
for identical inputs.

Two deliberate semantic gaps, both recorded in the document's comment
header:

* integers are unbounded here, so the finite-domain behavior where an
  out-of-range result leaves a state with no successor does not exist;
* loops are expanded a fixed number of times and executions that would
  iterate further are assumed away, so verdicts speak only about
  executions within the unroll bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import UnknownVariableError, UnsupportedForExportError
from .predicates import BY_NODE, And, BoolConst, Const, Expr, Implies, Mul, Neg, Not, PredExpr, Var
from .predicates import operands, operator_of, subexpressions
from .syntax import (
    Assign,
    Decl,
    IfThenElse,
    Nop,
    Seq,
    Stmt,
    While,
    declared_vars,
    pretty_print,
    statements,
)

@dataclass(frozen=True)
class VCDocument:
    logic: str
    declarations: tuple[str, ...]
    assertion: str
    metadata: tuple[str, ...]
    mode: str
    unroll: int
    program_sha256: str

    def text(self) -> str:
        lines = list(self.metadata)
        lines.append(f"(set-logic {self.logic})")
        lines.extend(self.declarations)
        lines.append(f"(assert {self.assertion})")
        lines.append("(check-sat)")
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.text()


def _smt(node, *terms: str) -> str:
    """The SMT-LIB term over `terms` of the operator that builds the class
    `node`, or of the comparison whose token `node` is."""
    return BY_NODE[node].smt.format(*terms)


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else _smt(Neg, str(-n))


class _Encoder:
    def __init__(self, variables, unroll: int, allow_partial_unroll: bool):
        self.types = dict(variables)
        self.unroll = unroll
        self.allow_partial_unroll = allow_partial_unroll
        self.counters: dict[str, int] = {}
        self.env: dict[str, str] = {}
        self.decls: list[str] = []
        self.conjuncts: list[str] = []
        for name, _ in variables:
            sym = self._fresh(name)
            self.env[name] = sym
            self._constrain_type(name, sym)

    def _fresh(self, name: str) -> str:
        n = self.counters.get(name, 0)
        self.counters[name] = n + 1
        sym = f"{name}!{n}"
        self.decls.append(f"(declare-const {sym} Int)")
        return sym

    def _constrain_type(self, name: str, sym: str):
        if self.types[name] == "bool":
            self.conjuncts.append(_smt(And, _smt("<=", "0", sym), _smt("<=", sym, "1")))

    def _lookup(self, name: str) -> str:
        try:
            return self.env[name]
        except KeyError:
            raise UnknownVariableError(name) from None

    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return _smt_int(e.value)
        if isinstance(e, Var):
            return self._lookup(e.name)
        if isinstance(e, BoolConst):
            return "true" if e.value else "false"
        op = operator_of(e)
        if op is None:
            raise UnsupportedForExportError(f"cannot encode expression node {type(e).__name__}")
        return op.smt.format(*map(self.expr, operands(e)))

    def stmt(self, s: Stmt, path: str):
        if isinstance(s, Nop):
            return
        if isinstance(s, Decl):
            sym = self._fresh(s.var)
            self.env[s.var] = sym
            self.types[s.var] = s.type_name
            self._constrain_type(s.var, sym)
            return
        if isinstance(s, Assign):
            rhs = self.expr(s.expr)
            sym = self._fresh(s.var)
            self.conjuncts.append(_smt("==", sym, rhs))
            self.env[s.var] = sym
            return
        if isinstance(s, Seq):
            # the parts run in a loop, so that a long program fits the stack
            while isinstance(s, Seq):
                self.stmt(s.first, path)
                s = s.second
            self.stmt(s, path)
            return
        if isinstance(s, IfThenElse):
            self._branch(s.cond, s.then_branch, s.else_branch, path)
            return
        if isinstance(s, While):
            self._loop(s, path)
            return
        raise UnsupportedForExportError(f"cannot encode statement {type(s).__name__}")

    def _branch(self, cond: PredExpr, then_branch: Stmt, else_branch: Stmt, path: str):
        guard = self.expr(cond)
        before = dict(self.env)
        self.stmt(then_branch, _conj(path, guard))
        then_env = self.env
        self.env = dict(before)
        self.stmt(else_branch, _conj(path, _smt(Not, guard)))
        else_env = self.env
        merged = dict(else_env)
        for name, then_sym in then_env.items():
            else_sym = else_env.get(name)
            if else_sym == then_sym:
                continue
            if else_sym is None:
                # declared only inside the branch; visible afterward per the
                # flat scoping of the language
                merged[name] = then_sym
                continue
            sym = self._fresh(name)
            self.conjuncts.append(_smt("==", sym, f"(ite {guard} {then_sym} {else_sym})"))
            merged[name] = sym
        self.env = merged

    def _loop(self, s: While, path: str):
        if not self.allow_partial_unroll:
            raise UnsupportedForExportError(
                "program contains a loop; bounded expansion must be requested explicitly"
            )
        for _ in range(self.unroll):
            self._branch(s.cond, s.body, Nop(), path)
        guard = self.expr(s.cond)
        if path == "true":
            self.conjuncts.append(_smt(Not, guard))
        else:
            self.conjuncts.append(_smt(Implies, path, _smt(Not, guard)))


def _conj(a: str, b: str) -> str:
    if a == "true":
        return b
    return _smt(And, a, b)


def select_logic(program: Stmt, pre: PredExpr, post: PredExpr) -> str:
    """QF_LIA unless some multiplication has two non-constant operands."""
    exprs = [pre, post]
    for s in statements(program):
        if isinstance(s, Assign):
            exprs.append(s.expr)
        elif isinstance(s, (IfThenElse, While)):
            exprs.append(s.cond)
    nonlinear = any(
        isinstance(n, Mul) and not isinstance(n.left, Const) and not isinstance(n.right, Const)
        for e in exprs
        for n in subexpressions(e)
    )
    return "QF_NIA" if nonlinear else "QF_LIA"


def export_vc(
    program: Stmt,
    pre: PredExpr,
    post: PredExpr,
    variables,
    mode: str = "total",
    unroll: int = 0,
    allow_partial_unroll: bool = False,
) -> VCDocument:
    """Build the negated-correctness document for `program` against
    (`pre`, `post`).

    `variables` is the ordered list of (name, type) pairs visible to the
    pre/postcondition; in-program declarations havoc on top of these.  With
    loops present, `allow_partial_unroll` must be set and each loop is
    expanded `unroll` times with deeper executions assumed away.
    """
    if mode not in ("total", "partial"):
        raise ValueError(f"unknown mode '{mode}'")
    if unroll < 0:
        raise ValueError("unroll bound must be nonnegative")
    has_loop = any(isinstance(s, While) for s in statements(program))

    all_vars = list(variables)
    known = {name for name, _ in all_vars}
    for name, type_name in declared_vars(program):
        if name not in known:
            all_vars.append((name, type_name))
            known.add(name)

    enc = _Encoder(tuple(all_vars), unroll, allow_partial_unroll)
    pre_smt = enc.expr(pre)
    enc.conjuncts.append(pre_smt)
    enc.stmt(program, "true")
    post_smt = enc.expr(post)
    enc.conjuncts.append(_smt(Not, post_smt))

    conjuncts = enc.conjuncts
    assertion = conjuncts[0] if len(conjuncts) == 1 else "(and " + " ".join(conjuncts) + ")"
    digest = hashlib.sha256(pretty_print(program).encode("utf-8")).hexdigest()
    metadata = [
        "; negated correctness condition: unsat means the condition holds",
        f"; program-sha256: {digest}",
        f"; mode: {mode}",
        f"; unroll: {unroll}",
        "; semantics: unbounded integers (finite-domain overflow not represented)",
    ]
    if has_loop:
        metadata.append(
            f"; coverage: executions with at most {unroll} iterations per loop; "
            "deeper executions are assumed away"
        )
    else:
        metadata.append("; coverage: all executions (loop-free)")
    logic = select_logic(program, pre, post)
    return VCDocument(
        logic=logic,
        declarations=tuple(enc.decls),
        assertion=assertion,
        metadata=tuple(metadata),
        mode=mode,
        unroll=unroll,
        program_sha256=digest,
    )
