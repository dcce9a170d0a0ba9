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

Expressions are read by precedence climbing over `predicates.OPERATORS`,
which gives each operator's token, level and grouping; `expr_to_str` prints
them back from the same table.  "//" starts a comment that runs to end of
line.  Compound assignments and the increment forms are desugared during
parsing, so the AST only has plain assignment.  Sequencing is associative:
blocks fold into one flat `Seq` of the statements they hold and leave no
node of their own.  "else" attaches to the nearest "if".  A one-armed
`if (p) s` is `IfThenElse(p, s, Nop())` whose else arm is a span-less
`Nop`; an explicit `else ;` or `else {}` gives a `Nop` with a span, so
each prints back as written.

Every variable reference must be preceded by a declaration (or appear in the
set of predeclared names handed to the parser); there is no block scoping,
and re-declaring a name is allowed.

Nothing may nest deeper than MAX_NESTING levels: every statement and
expression node, parenthesized group and block is a level, and a sequence
adds none.  Deeper input is a ScalcSyntaxError at the token that would go
past the bound.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import NestingTooDeepError, ScalcSyntaxError, SourceSpan, UndeclaredVariableError
from .predicates import (
    CMP_LEVEL,
    INFIX,
    PREFIX,
    Arith,
    ArithExpr,
    BoolConst,
    Const,
    Expr,
    Neg,
    Not,
    PredExpr,
    Var,
    operator_of,
)

# the deepest nesting the parser accepts, so that every recursive walk over
# what it returns fits the interpreter's stack
MAX_NESTING = 100
# the `min_level` at which `_Parser.expr` reads a predicate, an arithmetic
# expression
_PRED, _ARITH = 0, CMP_LEVEL + 1

# ---------------------------------------------------------------------------
# statement AST


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
    parts: tuple[Stmt, ...]


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
    """The sequence of `stmts`, with the parts of any `Seq` among them
    spliced in: none gives `Nop()`, and one gives itself."""
    parts = tuple(p for s in stmts for p in (s.parts if isinstance(s, Seq) else (s,)))
    if not parts:
        return Nop()
    return parts[0] if len(parts) == 1 else Seq(parts)


def statements(stmt: Stmt) -> Iterator[Stmt]:
    """Every statement node of `stmt`, itself first, in textual order."""
    yield stmt
    if isinstance(stmt, Seq):
        children = stmt.parts
    elif isinstance(stmt, IfThenElse):
        children = (stmt.then_branch, stmt.else_branch)
    elif isinstance(stmt, While):
        children = (stmt.body,)
    else:
        return
    for child in children:
        yield from statements(child)


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

# the expression operators and the statements' punctuation, longest first so
# that `<->` is not read as `<` and `-`
_OPS = sorted(
    {*INFIX, *PREFIX, "=", "+=", "-=", "*=", "++", "--", "(", ")", "{", "}", ";"},
    key=lambda t: (-len(t), t),
)
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>"""
    + "|".join(map(re.escape, _OPS))
    + ")",
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
        self.depth = 0  # levels of nesting open around what is parsed next

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

    # --- nesting

    def below(self, parse, *args):
        """`parse(*args)` for a part of the construct being read, one level
        further down; refused at the part's first token if its level would
        be past MAX_NESTING."""
        if self.depth + 2 > MAX_NESTING:
            self.too_deep(self.peek())
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def too_deep(self, tok: Token):
        raise NestingTooDeepError(f"nested deeper than {MAX_NESTING} levels", tok.span)

    # --- statements

    def program(self) -> Stmt:
        stmts: list[Stmt] = []
        while self.peek().kind != "eof":
            stmts.append(self.stmt())
        return seq_of(stmts)

    def stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("int", "bool"):
            return seq_of(self.decl_parts())
        if self.accept(";"):
            return Nop(span=tok.span)
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
            init = self.below(self.expr, _ARITH)[0]
        end = self.expect(";")
        decl = Decl(name.text, ty.text, span=self._join(ty.span, end.span))
        if init is None:
            return [decl]
        return [decl, Assign(name.text, init, span=self._join(name.span, end.span))]

    def assign(self) -> Stmt:
        name = self.expect_ident()
        self.check_declared(name.text, name.span)
        target = Var(name.text)
        tok = self.peek()
        if self.accept("="):
            expr = self.below(self.expr, _ARITH)[0]
        elif tok.text in ("+=", "-=", "*="):
            self.advance()
            # two levels down: below the assignment and the operator it adds
            expr = Arith(tok.text[0], target, self.below(self.below, self.expr, _ARITH)[0])
        elif tok.text in ("++", "--"):
            self.advance()
            expr = Arith(tok.text[0], target, Const(1))
        else:
            return self.fail("expected an assignment operator")
        end = self.expect(";")
        return Assign(name.text, expr, span=self._join(name.span, end.span))

    def cond(self) -> Stmt:
        start = self.expect("if")
        self.expect("(")
        guard = self.below(self.expr, _PRED)[0]
        self.expect(")")
        then_branch = self.below(self.stmt)
        else_branch = self.below(self.stmt) if self.accept("else") else Nop()
        return IfThenElse(guard, then_branch, else_branch, span=start.span)

    def loop(self) -> Stmt:
        start = self.expect("while")
        self.expect("(")
        guard = self.below(self.expr, _PRED)[0]
        self.expect(")")
        body = self.below(self.stmt)
        return While(guard, body, span=start.span)

    def block(self) -> Stmt:
        start = self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                self.fail("unterminated block")
            stmts.append(self.below(self.stmt))
        end = self.expect("}")
        out = seq_of(stmts)
        if isinstance(out, Nop) and out.span is None:
            return Nop(span=self._join(start.span, end.span))
        return out

    @staticmethod
    def _join(a: SourceSpan, b: SourceSpan) -> SourceSpan:
        return SourceSpan(a.start, b.end, a.line, a.col)

    # --- expressions: precedence climbing over predicates.OPERATORS

    def expr(self, min_level: int, first=None) -> tuple[Expr, int]:
        """The expression of operators at `min_level` or tighter starting
        here (or at `first`, an operand already read), and its height in
        levels.  Operators below CMP_LEVEL combine predicates and the others
        arithmetic, so a `min_level` up to CMP_LEVEL asks for a predicate."""
        left, height = first or self.operand(min_level)
        while True:
            tok = self.peek()
            op = INFIX.get(tok.text)
            if op is None or op.level < min_level or (op.level < CMP_LEVEL) != isinstance(left, PredExpr):
                break
            self.advance()
            right_level = op.level if op.grouping == "right" else op.level + 1
            right, right_height = self.below(self.expr, right_level)
            height = max(height, right_height) + 1
            if self.depth + height > MAX_NESTING:
                self.too_deep(tok)
            left = op.node(tok.text, left, right)
        if min_level <= CMP_LEVEL and isinstance(left, ArithExpr):
            self.fail("expected a comparison operator")
        return left, height

    def operand(self, min_level: int) -> tuple[Expr, int]:
        """A constant, a variable, a prefix operator's application or a
        parenthesized group, and its height in levels."""
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Const(int(tok.text)), 1
        if tok.kind == "ident":
            self.advance()
            self.check_declared(tok.text, tok.span)
            return Var(tok.text), 1
        op = PREFIX.get(tok.text)
        if op is not None and op.level >= min_level:
            self.advance()
            literal = self.peek().kind == "int"
            inner, height = self.below(self.expr, op.level)
            if op.node is Neg and literal:
                # only a minus directly on a literal folds: `-(k)` stays Neg
                return Const(-inner.value), height + 1
            return op.node(inner), height + 1
        if min_level <= CMP_LEVEL:
            if tok.kind == "keyword" and tok.text in ("true", "false"):
                self.advance()
                return BoolConst(tok.text == "true"), 1
            if tok.text == "(":
                # Could open a parenthesized predicate or the left operand of a
                # comparison; try the comparison reading first and backtrack.
                mark = self.pos, self.depth
                try:
                    return self.expr(CMP_LEVEL, self.operand(_ARITH))
                except NestingTooDeepError:
                    raise
                except ScalcSyntaxError:
                    self.pos, self.depth = mark
                return self.parenthesized(_PRED)
        if tok.text == "(":
            return self.parenthesized(_ARITH)
        return self.fail("expected an arithmetic operand")

    def parenthesized(self, min_level: int) -> tuple[Expr, int]:
        """`(`, an expression of operators at `min_level` or tighter, `)`."""
        self.expect("(")
        inner, height = self.below(self.expr, min_level)
        self.expect(")")
        return inner, height + 1


def parse_program(source: str, predeclared=()) -> Stmt:
    """Parse a whole program; `predeclared` names need no in-program Decl."""
    return _Parser(tokenize(source), set(predeclared)).program()


def parse_pred(source: str, declared=()) -> PredExpr:
    """Parse a standalone predicate (used for pre/postconditions)."""
    parser = _Parser(tokenize(source), set(declared))
    out = parser.expr(_PRED)[0]
    if parser.peek().kind != "eof":
        parser.fail("trailing input after predicate")
    return out


def parse_arith(source: str, declared=()) -> ArithExpr:
    parser = _Parser(tokenize(source), set(declared))
    out = parser.expr(_ARITH)[0]
    if parser.peek().kind != "eof":
        parser.fail("trailing input after expression")
    return out


# ---------------------------------------------------------------------------
# printing

def expr_to_str(e: Expr) -> str:
    """Source text for an expression, parenthesized where the operator
    table's levels and groupings need it."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BoolConst):
        return "true" if e.value else "false"
    op = operator_of(e)
    if op is None:
        raise TypeError(f"not an expression: {e!r}")
    if op.grouping == "prefix":
        # `!!p` reads back as written but `--x` would not, and a comparison
        # under `!` is parenthesized, and so is a literal under `-`, as `--5`
        # would lex as a decrement
        inner = expr_to_str(e.operand)
        bare = isinstance(e.operand, (Var, BoolConst, Not))
        return op.token + (inner if bare else f"({inner})")
    # the operand on the side the operator groups to may share its level
    if op.grouping == "right":
        left_min, right_min = op.level + 1, op.level
    else:
        left_min, right_min = op.level, op.level + 1
    return f"{_operand_str(e.left, left_min)} {op.token} {_operand_str(e.right, right_min)}"


def _operand_str(e: Expr, min_level: int) -> str:
    op = operator_of(e)
    s = expr_to_str(e)
    return f"({s})" if op is not None and op.level < min_level else s


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
        lines.append(f"{pad}{s.var} = {expr_to_str(s.expr)};")
    elif isinstance(s, Seq):
        for part in s.parts:
            _stmt_lines(part, indent, lines)
    elif isinstance(s, (IfThenElse, While)):
        if isinstance(s, While):
            head, body = f"while ({expr_to_str(s.cond)})", s.body
        else:
            head, body = f"if ({expr_to_str(s.cond)})", s.then_branch
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
            if _is_simple(els) or isinstance(els, IfThenElse):
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
