"""Arithmetic and predicate expressions over states, and extensional predicate sets.

Arithmetic is exact 64-bit signed: any intermediate outside
[-2^63, 2^63) evaluates to the UNDEFINED sentinel, and a comparison with an
UNDEFINED operand is false.  A predicate read over a space yields a PredSet,
an immutable bitmask subset of state indices.  `pred_to_set` builds it with
mask operations: the connectives combine whole masks, and each atom is
evaluated once per valuation of the variables it reads, then repeated along
the strides of the variables it does not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional, Union

from .errors import SourceSpan
from .state_space import State, StateSpace

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


CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


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


@dataclass(frozen=True)
class InDomain(PredExpr):
    """Atomic predicate: the variable's current value lies in its own domain.

    Over a product space every stored value is in-domain by construction, so
    this is constantly true there; it exists so preconditions can mirror
    typing assumptions explicitly.  It has no concrete surface syntax.
    """

    var: str
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# evaluation


def _clamp64(v: int) -> ArithValue:
    return v if INT64_MIN <= v <= INT64_MAX else UNDEFINED


def eval_arith(e: ArithExpr, state: State) -> ArithValue:
    """Exact 64-bit evaluation; UNDEFINED is absorbing."""
    if isinstance(e, Const):
        return _clamp64(e.value)
    if isinstance(e, Var):
        return state.value_of(e.name)
    if isinstance(e, Neg):
        v = eval_arith(e.operand, state)
        return UNDEFINED if v is UNDEFINED else _clamp64(-v)
    if isinstance(e, (Add, Sub, Mul)):
        a = eval_arith(e.left, state)
        b = eval_arith(e.right, state)
        if a is UNDEFINED or b is UNDEFINED:
            return UNDEFINED
        if isinstance(e, Add):
            return _clamp64(a + b)
        if isinstance(e, Sub):
            return _clamp64(a - b)
        return _clamp64(a * b)
    raise TypeError(f"not an arithmetic expression: {e!r}")


_CMP_FNS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_pred(p: PredExpr, state: State) -> bool:
    if isinstance(p, BoolConst):
        return p.value
    if isinstance(p, Cmp):
        a = eval_arith(p.left, state)
        b = eval_arith(p.right, state)
        if a is UNDEFINED or b is UNDEFINED:
            return False
        return _CMP_FNS[p.op](a, b)
    if isinstance(p, Not):
        return not eval_pred(p.operand, state)
    if isinstance(p, And):
        return eval_pred(p.left, state) and eval_pred(p.right, state)
    if isinstance(p, Or):
        return eval_pred(p.left, state) or eval_pred(p.right, state)
    if isinstance(p, Implies):
        return (not eval_pred(p.left, state)) or eval_pred(p.right, state)
    if isinstance(p, Iff):
        return eval_pred(p.left, state) == eval_pred(p.right, state)
    if isinstance(p, InDomain):
        return state.value_of(p.var) in state.universe.domain(p.var)
    raise TypeError(f"not a predicate expression: {p!r}")


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
    on every state with `eval_pred`, and raising where that would raise."""
    full = (1 << space.size) - 1
    return PredSet(space.size, _mask(p, space, full, full))


def _mask(p: PredExpr, space: StateSpace, care: int, full: int) -> int:
    """A mask that agrees with p on the states in `care`.  A right operand
    is read only where `eval_pred` would reach it, and a sub-predicate that
    no care state reaches is not evaluated at all."""
    if not care:
        return 0
    if isinstance(p, BoolConst):
        return full if p.value else 0
    if isinstance(p, (Cmp, InDomain)):
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


def _reads(e) -> set[str]:
    """The variables an atom or an arithmetic expression reads."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, InDomain):
        return {e.var}
    return set().union(*(_reads(c) for c in vars(e).values() if isinstance(c, ArithExpr)))


def _atom_mask(p: PredExpr, space: StateSpace) -> int:
    """Evaluate the atom once per valuation of the variables it reads, then
    widen that table to the whole space, one bit character per state."""
    universe = space.universe
    read = sorted(universe.position(name) for name in _reads(p))
    values = [dom.values[0] for _, dom in universe.vars]
    blocks = []
    for valuation in product(*(universe.vars[k][1].values for k in read)):
        for k, v in zip(read, valuation):
            values[k] = v
        blocks.append("1" if eval_pred(p, State(universe, tuple(values))) else "0")
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
