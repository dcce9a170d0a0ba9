"""Concrete syntax for the guarded imperative language and its predicates.

Grammar (statements):

    program   := stmt*
    stmt      := ";" | decl | assign | cond | loop | block
    decl      := ("int" | "bool") IDENT ("=" arith)? ";"
    assign    := IDENT ("=" | "+=" | "-=" | "*=") arith ";"
               | IDENT ("++" | "--") ";"
    cond      := "if" "(" pred ")" stmt ["else" stmt]
    loop      := "while" "(" pred ")" stmt
    block     := "{" stmt* "}"

An initialized declaration is sugar for a declaration followed by a plain
assignment, and both parts land as separate elements of the enclosing
sequence.

Predicates, loosest binding first: "<->" (left), "->" (right), "||", "&&",
"!", comparisons.  Arithmetic: "+"/"-" over "*" over unary minus.  "//"
starts a comment that runs to end of line.  Compound assignments and the
increment forms are desugared during parsing, so the AST only has plain
assignment.  Blocks fold into right-nested sequencing and leave no node of
their own.  "else" attaches to the nearest "if".  A one-armed `if (p) s` is
`IfThenElse(p, s, Nop())` whose else arm is a span-less `Nop`; an explicit
`else ;` or `else {}` gives a `Nop` with a span, so each prints back as
written.

Every variable reference must be preceded by a declaration (or appear in the
set of predeclared names handed to the parser); there is no block scoping,
and re-declaring a name is allowed.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import ScalcSyntaxError, SourceSpan, UndeclaredVariableError
from .predicates import (
    Add,
    And,
    ArithExpr,
    BoolConst,
    Cmp,
    Const,
    Iff,
    Implies,
    Mul,
    Neg,
    Not,
    Or,
    PredExpr,
    Sub,
    Var,
)

# ---------------------------------------------------------------------------
# statement AST


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Nop(Stmt):
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Decl(Stmt):
    var: str
    type_name: str
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.type_name not in ("int", "bool"):
            raise ValueError(f"bad declared type {self.type_name!r}")


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    expr: ArithExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Seq(Stmt):
    first: Stmt
    second: Stmt
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IfThenElse(Stmt):
    cond: PredExpr
    then_branch: Stmt
    else_branch: Stmt
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class While(Stmt):
    cond: PredExpr
    body: Stmt
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


def seq_of(stmts: list[Stmt]) -> Stmt:
    """Right-nested sequence; empty list collapses to a no-op."""
    if not stmts:
        return Nop()
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def statements(stmt: Stmt) -> Iterator[Stmt]:
    """Every statement node of `stmt`, itself first, in textual order."""
    # an explicit stack, not recursion, so that a long program does not
    # exhaust the interpreter's stack; children go on it last part first
    stack = [stmt]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Seq):
            stack += (s.second, s.first)
        elif isinstance(s, IfThenElse):
            stack += (s.else_branch, s.then_branch)
        elif isinstance(s, While):
            stack.append(s.body)


def declared_vars(stmt: Stmt) -> list[tuple[str, str]]:
    """All (name, type) declarations in textual order, first occurrence wins."""
    seen: dict[str, str] = {}
    for s in statements(stmt):
        if isinstance(s, Decl):
            seen.setdefault(s.var, s.type_name)
    return list(seen.items())


# ---------------------------------------------------------------------------
# lexer

KEYWORDS = {"int", "bool", "if", "else", "while", "true", "false"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><->|->|\+\+|--|\+=|-=|\*=|==|!=|<=|>=|&&|\|\||[=+\-*!<>(){};])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "keyword" | "op" | "eof"
    text: str
    span: SourceSpan


class _Lexer:
    def __init__(self, source: str):
        self.source = source
        self.line_starts = [0]
        for i, ch in enumerate(source):
            if ch == "\n":
                self.line_starts.append(i + 1)

    def span(self, start: int, end: int) -> SourceSpan:
        line = bisect.bisect_right(self.line_starts, start) - 1
        return SourceSpan(start, end, line + 1, start - self.line_starts[line] + 1)

    def tokens(self) -> list[Token]:
        out = []
        pos = 0
        n = len(self.source)
        while pos < n:
            m = _TOKEN_RE.match(self.source, pos)
            if m is None:
                raise ScalcSyntaxError(
                    f"unexpected character {self.source[pos]!r}", self.span(pos, pos + 1)
                )
            pos = m.end()
            kind = m.lastgroup
            if kind in ("ws", "comment"):
                continue
            text = m.group()
            if kind == "ident" and text in KEYWORDS:
                kind = "keyword"
            out.append(Token(kind, text, self.span(m.start(), m.end())))
        out.append(Token("eof", "", self.span(n, n)))
        return out


def tokenize(source: str) -> list[Token]:
    return _Lexer(source).tokens()


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[Token], declared: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared

    # --- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("op", "keyword")

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        return self.fail(f"expected {text!r}")

    def fail(self, message: str):
        tok = self.peek()
        got = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
        raise ScalcSyntaxError(f"{message}, got {got}", tok.span)

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected an identifier")
        return self.advance()

    def check_declared(self, name: str, span: SourceSpan):
        if name not in self.declared:
            raise UndeclaredVariableError(name, span)

    # --- statements

    def program(self) -> Stmt:
        stmts: list[Stmt] = []
        while self.peek().kind != "eof":
            self.stmt_into(stmts)
        return seq_of(stmts)

    def stmt_into(self, out: list[Stmt]):
        """Parse one source statement; an initialized declaration contributes
        two flat AST statements (the declaration, then the assignment)."""
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("int", "bool"):
            out.extend(self.decl_parts())
        else:
            out.append(self.stmt())

    def stmt(self) -> Stmt:
        tok = self.peek()
        if self.accept(";"):
            return Nop(span=tok.span)
        if tok.kind == "keyword" and tok.text in ("int", "bool"):
            return seq_of(self.decl_parts())
        if self.at("if"):
            return self.cond()
        if self.at("while"):
            return self.loop()
        if self.at("{"):
            return self.block()
        if tok.kind == "ident":
            return self.assign()
        return self.fail("expected a statement")

    def decl_parts(self) -> list[Stmt]:
        """`int a;` or `int a = e;` (the latter desugars to decl + assign)."""
        ty = self.advance()
        name = self.expect_ident()
        self.declared.add(name.text)
        init = None
        if self.accept("="):
            init = self.arith()
        end = self.expect(";")
        decl = Decl(name.text, ty.text, span=self._join(ty.span, end.span))
        if init is None:
            return [decl]
        return [decl, Assign(name.text, init, span=self._join(name.span, end.span))]

    def assign(self) -> Stmt:
        name = self.expect_ident()
        self.check_declared(name.text, name.span)
        target = Var(name.text, span=name.span)
        if self.accept("="):
            expr = self.arith()
        elif self.accept("+="):
            expr = Add(target, self.arith())
        elif self.accept("-="):
            expr = Sub(target, self.arith())
        elif self.accept("*="):
            expr = Mul(target, self.arith())
        elif self.accept("++"):
            expr = Add(target, Const(1))
        elif self.accept("--"):
            expr = Sub(target, Const(1))
        else:
            return self.fail("expected an assignment operator")
        end = self.expect(";")
        return Assign(name.text, expr, span=self._join(name.span, end.span))

    def cond(self) -> Stmt:
        start = self.expect("if")
        self.expect("(")
        guard = self.pred()
        self.expect(")")
        then_branch = self.stmt()
        else_branch = self.stmt() if self.accept("else") else Nop()
        return IfThenElse(guard, then_branch, else_branch, span=start.span)

    def loop(self) -> Stmt:
        start = self.expect("while")
        self.expect("(")
        guard = self.pred()
        self.expect(")")
        body = self.stmt()
        return While(guard, body, span=start.span)

    def block(self) -> Stmt:
        start = self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                self.fail("unterminated block")
            self.stmt_into(stmts)
        end = self.expect("}")
        out = seq_of(stmts)
        if isinstance(out, Nop) and out.span is None:
            return Nop(span=self._join(start.span, end.span))
        return out

    @staticmethod
    def _join(a: SourceSpan, b: SourceSpan) -> SourceSpan:
        return SourceSpan(a.start, b.end, a.line, a.col)

    # --- predicates (loosest first: <->, ->, ||, &&, !, atoms)

    def pred(self) -> PredExpr:
        left = self.pred_implies()
        while self.accept("<->"):
            left = Iff(left, self.pred_implies())
        return left

    def pred_implies(self) -> PredExpr:
        left = self.pred_or()
        if self.accept("->"):
            # right associative
            return Implies(left, self.pred_implies())
        return left

    def pred_or(self) -> PredExpr:
        left = self.pred_and()
        while self.accept("||"):
            left = Or(left, self.pred_and())
        return left

    def pred_and(self) -> PredExpr:
        left = self.pred_not()
        while self.accept("&&"):
            left = And(left, self.pred_not())
        return left

    def pred_not(self) -> PredExpr:
        if self.at("!"):
            tok = self.advance()
            return Not(self.pred_not(), span=tok.span)
        return self.pred_atom()

    def pred_atom(self) -> PredExpr:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return BoolConst(tok.text == "true", span=tok.span)
        if self.at("("):
            # Could open a parenthesized predicate or the left operand of a
            # comparison; try the comparison reading first and backtrack.
            mark = self.pos
            try:
                return self.comparison()
            except ScalcSyntaxError:
                self.pos = mark
            self.expect("(")
            inner = self.pred()
            self.expect(")")
            return inner
        return self.comparison()

    def comparison(self) -> PredExpr:
        left = self.arith()
        tok = self.peek()
        if tok.text in ("==", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self.arith()
            return Cmp(tok.text, left, right, span=tok.span)
        return self.fail("expected a comparison operator")

    # --- arithmetic

    def arith(self) -> ArithExpr:
        left = self.term()
        while True:
            if self.accept("+"):
                left = Add(left, self.term())
            elif self.accept("-"):
                left = Sub(left, self.term())
            else:
                return left

    def term(self) -> ArithExpr:
        left = self.unary()
        while self.accept("*"):
            left = Mul(left, self.unary())
        return left

    def unary(self) -> ArithExpr:
        if self.at("-"):
            tok = self.advance()
            operand = self.unary()
            if isinstance(operand, Const):
                # Fold so a negative literal prints back as itself.
                return Const(-operand.value, span=tok.span)
            return Neg(operand, span=tok.span)
        return self.atom()

    def atom(self) -> ArithExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Const(int(tok.text), span=tok.span)
        if tok.kind == "ident":
            self.advance()
            self.check_declared(tok.text, tok.span)
            return Var(tok.text, span=tok.span)
        if self.accept("("):
            inner = self.arith()
            self.expect(")")
            return inner
        return self.fail("expected an arithmetic operand")


def parse_program(source: str, predeclared=()) -> Stmt:
    """Parse a whole program; `predeclared` names need no in-program Decl."""
    parser = _Parser(tokenize(source), set(predeclared))
    out = parser.program()
    return out


def parse_pred(source: str, declared=()) -> PredExpr:
    """Parse a standalone predicate (used for pre/postconditions)."""
    parser = _Parser(tokenize(source), set(declared))
    out = parser.pred()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after predicate")
    return out


def parse_arith(source: str, declared=()) -> ArithExpr:
    parser = _Parser(tokenize(source), set(declared))
    out = parser.arith()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after expression")
    return out


# ---------------------------------------------------------------------------
# printing

_ARITH_PREC = {Add: 1, Sub: 1, Mul: 2, Neg: 3, Const: 4, Var: 4}


def arith_to_str(e: ArithExpr) -> str:
    def wrap(child: ArithExpr, min_prec: int) -> str:
        s = arith_to_str(child)
        return f"({s})" if _ARITH_PREC[type(child)] < min_prec else s

    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, 4)
    if isinstance(e, Add):
        return f"{wrap(e.left, 1)} + {wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{wrap(e.left, 1)} - {wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, 2)} * {wrap(e.right, 3)}"
    raise TypeError(f"not an arithmetic expression: {e!r}")


_PRED_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Cmp: 6, BoolConst: 6}


def pred_to_str(p: PredExpr) -> str:
    def wrap(child: PredExpr, min_prec: int) -> str:
        s = pred_to_str(child)
        return f"({s})" if _PRED_PREC[type(child)] < min_prec else s

    if isinstance(p, BoolConst):
        return "true" if p.value else "false"
    if isinstance(p, Cmp):
        return f"{arith_to_str(p.left)} {p.op} {arith_to_str(p.right)}"
    if isinstance(p, Not):
        inner = p.operand
        if isinstance(inner, (BoolConst, Not)):
            return "!" + pred_to_str(inner)
        return f"!({pred_to_str(inner)})"
    if isinstance(p, And):
        return f"{wrap(p.left, 4)} && {wrap(p.right, 5)}"
    if isinstance(p, Or):
        return f"{wrap(p.left, 3)} || {wrap(p.right, 4)}"
    if isinstance(p, Implies):
        # right associative: parenthesize a nested implication on the left
        return f"{wrap(p.left, 3)} -> {wrap(p.right, 2)}"
    if isinstance(p, Iff):
        return f"{wrap(p.left, 1)} <-> {wrap(p.right, 2)}"
    raise TypeError(f"not a predicate expression: {p!r}")


def _is_simple(s: Stmt) -> bool:
    return isinstance(s, (Nop, Decl, Assign))


def _is_one_armed(s: IfThenElse) -> bool:
    """Parsed from `if (p) s` with no `else`: the else arm is a `Nop` no
    source text produced."""
    return isinstance(s.else_branch, Nop) and s.else_branch.span is None


def _stmt_lines(s: Stmt, indent: int, lines: list[str]):
    pad = "    " * indent
    if isinstance(s, Nop):
        lines.append(pad + ";")
    elif isinstance(s, Decl):
        lines.append(f"{pad}{s.type_name} {s.var};")
    elif isinstance(s, Assign):
        lines.append(f"{pad}{s.var} = {arith_to_str(s.expr)};")
    elif isinstance(s, Seq):
        while isinstance(s, Seq):  # a loop, so that a long program fits the stack
            _stmt_lines(s.first, indent, lines)
            s = s.second
        _stmt_lines(s, indent, lines)
    elif isinstance(s, (IfThenElse, While)):
        if isinstance(s, While):
            head, body = f"while ({pred_to_str(s.cond)})", s.body
        else:
            head, body = f"if ({pred_to_str(s.cond)})", s.then_branch
        if _is_simple(body):
            sub: list[str] = []
            _stmt_lines(body, 0, sub)
            lines.append(f"{pad}{head} {sub[0]}")
        else:
            lines.append(f"{pad}{head} {{")
            _stmt_lines(body, indent + 1, lines)
            lines.append(pad + "}")
        if isinstance(s, IfThenElse) and not _is_one_armed(s):
            els = s.else_branch
            if _is_simple(els):
                sub = []
                _stmt_lines(els, 0, sub)
                lines.append(f"{pad}else {sub[0]}")
            elif isinstance(els, IfThenElse):
                sub = []
                _stmt_lines(els, 0, sub)
                lines.append(f"{pad}else {sub[0]}")
                lines.extend(pad + ln for ln in sub[1:])
            else:
                lines.append(pad + "else {")
                _stmt_lines(els, indent + 1, lines)
                lines.append(pad + "}")
    else:
        raise TypeError(f"not a statement: {s!r}")


def pretty_print(s: Stmt) -> str:
    """Render a statement as re-parseable source (modulo spans)."""
    lines: list[str] = []
    _stmt_lines(s, 0, lines)
    return "\n".join(lines) + "\n"
