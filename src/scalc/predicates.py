"""Arithmetic and predicate expressions over states, and extensional predicate sets.

Arithmetic is exact 64-bit signed: any intermediate outside
[-2^63, 2^63) evaluates to the UNDEFINED sentinel, and a comparison with an
UNDEFINED operand is false.  `compile_arith` and `compile_pred` turn an
expression, once per space, into a function of the state index: variable v
reads `values[i // stride % size]`, so no valuation is ever built.  A
predicate read over a space yields a PredSet, an immutable bitmask subset of
state indices.  `pred_to_set` builds it with mask operations: the
connectives combine whole masks, and each atom is evaluated once per
valuation of the variables it reads, then repeated along the strides of the
variables it does not read.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from .errors import SourceSpan, UnknownVariableError
from .state_space import StateSpace

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class _Undefined:
    """Unique sentinel for arithmetic results outside the 64-bit range."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"


UNDEFINED = _Undefined()

ArithValue = Union[int, _Undefined]


# ---------------------------------------------------------------------------
# expression ASTs


@dataclass(frozen=True)
class ArithExpr:
    pass


@dataclass(frozen=True)
class Const(ArithExpr):
    value: int
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(ArithExpr):
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Add(ArithExpr):
    left: ArithExpr
    right: ArithExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Sub(ArithExpr):
    left: ArithExpr
    right: ArithExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Mul(ArithExpr):
    left: ArithExpr
    right: ArithExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(ArithExpr):
    operand: ArithExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PredExpr:
    pass


@dataclass(frozen=True)
class BoolConst(PredExpr):
    value: bool
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Cmp(PredExpr):
    op: str
    left: ArithExpr
    right: ArithExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class Not(PredExpr):
    operand: PredExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And(PredExpr):
    left: PredExpr
    right: PredExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Or(PredExpr):
    left: PredExpr
    right: PredExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Implies(PredExpr):
    left: PredExpr
    right: PredExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Iff(PredExpr):
    left: PredExpr
    right: PredExpr
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


Expr = Union[ArithExpr, PredExpr]


# ---------------------------------------------------------------------------
# the operator table, read by the parser, the printer, the SMT encoder and
# the compilers


@dataclass(frozen=True)
class Operator:
    token: str
    node: type  # the AST class it builds; the comparisons share Cmp
    level: int  # precedence: a higher level binds tighter
    grouping: str  # "left", "right", "none" (a comparison) or "prefix"
    smt: str  # the SMT-LIB term, one "{}" per operand
    apply: Optional[Callable] = None  # the integer operation, where one applies


OPERATORS = (
    Operator("<->", Iff, 1, "left", "(= {} {})"),
    Operator("->", Implies, 2, "right", "(=> {} {})"),
    Operator("||", Or, 3, "left", "(or {} {})"),
    Operator("&&", And, 4, "left", "(and {} {})"),
    Operator("!", Not, 5, "prefix", "(not {})"),
    Operator("==", Cmp, 6, "none", "(= {} {})", operator.eq),
    Operator("!=", Cmp, 6, "none", "(not (= {} {}))", operator.ne),
    Operator("<", Cmp, 6, "none", "(< {} {})", operator.lt),
    Operator("<=", Cmp, 6, "none", "(<= {} {})", operator.le),
    Operator(">", Cmp, 6, "none", "(> {} {})", operator.gt),
    Operator(">=", Cmp, 6, "none", "(>= {} {})", operator.ge),
    Operator("+", Add, 7, "left", "(+ {} {})", operator.add),
    Operator("-", Sub, 7, "left", "(- {} {})", operator.sub),
    Operator("*", Mul, 8, "left", "(* {} {})", operator.mul),
    Operator("-", Neg, 9, "prefix", "(- {})"),
)

CMP_OPS = tuple(op.token for op in OPERATORS if op.node is Cmp)
# operators below the comparisons combine predicates, the rest arithmetic
CMP_LEVEL = next(op.level for op in OPERATORS if op.node is Cmp)
INFIX = {op.token: op for op in OPERATORS if op.grouping != "prefix"}
PREFIX = {op.token: op for op in OPERATORS if op.grouping == "prefix"}
# each entry by the class it builds, a comparison's by its token
BY_NODE = {op.token if op.node is Cmp else op.node: op for op in OPERATORS}


def operator_of(e: Expr) -> Optional[Operator]:
    """The entry that builds e, or None for a constant or a variable."""
    return BY_NODE.get(e.op if isinstance(e, Cmp) else type(e))


def operands(e: Expr) -> list[Expr]:
    """The expressions e applies its operator to, left first."""
    return [c for c in vars(e).values() if isinstance(c, (ArithExpr, PredExpr))]


# ---------------------------------------------------------------------------
# evaluation


def subexpressions(e: Expr) -> Iterator[Expr]:
    """e and every arithmetic or predicate node below it."""
    yield e
    for child in operands(e):
        yield from subexpressions(child)


def compile_arith(e: ArithExpr, space: StateSpace) -> Callable[[int], ArithValue]:
    """A function from a state index to the value of e there: exact 64-bit
    arithmetic, with UNDEFINED absorbing.  A variable outside the space
    raises when it is read, not when it is compiled."""
    if isinstance(e, Const):
        value = e.value if INT64_MIN <= e.value <= INT64_MAX else UNDEFINED
        return lambda i: value
    if isinstance(e, Var):
        if e.name not in space.universe:

            def unknown(i: int) -> ArithValue:
                raise UnknownVariableError(e.name)

            return unknown
        k = space.universe.position(e.name)
        values, stride = space.universe.vars[k][1].values, space.strides[k]
        size = len(values)
        return lambda i: values[i // stride % size]
    if isinstance(e, Neg):
        return compile_arith(Sub(Const(0), e.operand), space)
    entry = BY_NODE.get(type(e))
    if entry is not None and isinstance(e, ArithExpr):
        op = entry.apply
        left, right = compile_arith(e.left, space), compile_arith(e.right, space)

        def binary(i: int) -> ArithValue:
            a, b = left(i), right(i)
            if a is UNDEFINED or b is UNDEFINED:
                return UNDEFINED
            v = op(a, b)
            return v if INT64_MIN <= v <= INT64_MAX else UNDEFINED

        return binary
    raise TypeError(f"not an arithmetic expression: {e!r}")


def compile_pred(p: PredExpr, space: StateSpace) -> Callable[[int], bool]:
    """A function from a state index to the truth of p there.  A comparison
    with an UNDEFINED operand is false, and `&&`, `||` and `->` read their
    right operand only where the left one does not decide."""
    if isinstance(p, BoolConst):
        value = p.value
        return lambda i: value
    if isinstance(p, Cmp):
        op = operator_of(p).apply
        left, right = compile_arith(p.left, space), compile_arith(p.right, space)

        def cmp(i: int) -> bool:
            a, b = left(i), right(i)
            if a is UNDEFINED or b is UNDEFINED:
                return False
            return op(a, b)

        return cmp
    if isinstance(p, Not):
        operand = compile_pred(p.operand, space)
        return lambda i: not operand(i)
    if not isinstance(p, (And, Or, Implies, Iff)):
        raise TypeError(f"not a predicate expression: {p!r}")
    left, right = compile_pred(p.left, space), compile_pred(p.right, space)
    if isinstance(p, And):
        return lambda i: left(i) and right(i)
    if isinstance(p, Or):
        return lambda i: left(i) or right(i)
    if isinstance(p, Implies):
        return lambda i: not left(i) or right(i)
    return lambda i: left(i) == right(i)


# ---------------------------------------------------------------------------
# extensional sets


@dataclass(frozen=True)
class PredSet:
    """A subset of the state indices [0, size), stored as a bitmask."""

    size: int
    mask: int

    def __post_init__(self):
        if self.mask >> self.size:
            raise ValueError("mask has bits outside [0, size)")

    @classmethod
    def empty(cls, size: int) -> "PredSet":
        return cls(size, 0)

    @classmethod
    def full(cls, size: int) -> "PredSet":
        return cls(size, (1 << size) - 1)

    @classmethod
    def from_indices(cls, size: int, indices) -> "PredSet":
        mask = 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"index {i} out of range [0, {size})")
            mask |= 1 << i
        return cls(size, mask)

    def _check(self, other: "PredSet"):
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")

    def __and__(self, other: "PredSet") -> "PredSet":
        self._check(other)
        return PredSet(self.size, self.mask & other.mask)

    def __or__(self, other: "PredSet") -> "PredSet":
        self._check(other)
        return PredSet(self.size, self.mask | other.mask)

    def __invert__(self) -> "PredSet":
        return PredSet(self.size, self.mask ^ ((1 << self.size) - 1))

    def __sub__(self, other: "PredSet") -> "PredSet":
        self._check(other)
        return PredSet(self.size, self.mask & ~other.mask)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.size and bool(self.mask >> index & 1)

    def subset_of(self, other: "PredSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.size) - 1

    def count(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> Iterator[int]:
        """Member indices in increasing order."""
        m = self.mask
        if m.bit_length() > 64:
            # one pass over the binary digits, lowest first: peeling bits
            # off a large mask would copy the whole int for every member
            digits = bin(m)[:1:-1]
            i = digits.find("1")
            while i >= 0:
                yield i
                i = digits.find("1", i + 1)
            return
        # on the law suite's masks of a few bits, peeling costs half as much
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low


def pred_to_set(p: PredExpr, space: StateSpace) -> PredSet:
    """The states of the space that satisfy p, the same set as evaluating p
    on every state with `compile_pred`, and raising where that would raise."""
    full = (1 << space.size) - 1
    return PredSet(space.size, _mask(p, space, full, full))


def _mask(p: PredExpr, space: StateSpace, care: int, full: int) -> int:
    """A mask that agrees with p on the states in `care`.  A right operand
    is read only where `compile_pred` would reach it, and a sub-predicate that
    no care state reaches is not evaluated at all."""
    if not care:
        return 0
    if isinstance(p, BoolConst):
        return full if p.value else 0
    if isinstance(p, Cmp):
        return _atom_mask(p, space)
    if isinstance(p, Not):
        return full ^ _mask(p.operand, space, care, full)
    if not isinstance(p, (And, Or, Implies, Iff)):
        raise TypeError(f"not a predicate expression: {p!r}")
    left = _mask(p.left, space, care, full)
    if isinstance(p, And):
        return left & _mask(p.right, space, care & left, full)
    if isinstance(p, Or):
        return left | _mask(p.right, space, care & ~left, full)
    if isinstance(p, Implies):
        return (full ^ left) | _mask(p.right, space, care & left, full)
    return full ^ left ^ _mask(p.right, space, care, full)


def _atom_mask(p: Cmp, space: StateSpace) -> int:
    """Evaluate the atom once per valuation of the variables it reads, then
    widen that table to the whole space, one bit character per state."""
    universe = space.universe
    read = sorted({universe.position(n.name) for n in subexpressions(p) if isinstance(n, Var)})
    # the indices where every other variable takes its first value, the
    # last variable read varying fastest
    indices = [0]
    for k in read:
        stride = space.strides[k]
        indices = [i + v * stride for i in indices for v in range(universe.vars[k][1].size)]
    holds = compile_pred(p, space)
    blocks = ["1" if holds(i) else "0" for i in indices]
    # from the fastest variable outwards: a variable the atom reads joins
    # each run of consecutive blocks, one block per value; any other
    # variable repeats every block once per value
    for k in reversed(range(len(universe))):
        d = universe.vars[k][1].size
        if k in read:
            blocks = ["".join(blocks[g : g + d]) for g in range(0, len(blocks), d)]
        else:
            blocks = [b * d for b in blocks]
    return int(blocks[0][::-1], 2)
