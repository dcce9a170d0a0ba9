"""First-order formulas over a finite state space (S-formulas).

An S-formula is a predicate expression (`predicates.PredExpr`) over the
atoms P(x) and S(x, y) and the quantifiers: it shares `Not`, `Conn` and
`BoolConst` with the program's predicates.  Formula variables range over
*states* (by index).  Unary symbols are bound to PredSets and binary
symbols to Relations by an environment; nothing else is bound by
convention, and the always-true and always-false predicates are the
constants `BoolConst(True)` and `BoolConst(False)`.
`compile_lanes` turns a formula once into mask operations: a subformula
with k free variables is the set of its satisfying valuations, a mask of
n**k bits; connectives are integer operations, and a quantifier combines
the blocks of its variable.  The masks of L environments, the lanes, run
at once: each valuation's bit becomes L bits, lane t lowest, so every
width scales by L.  `compile_sformula` is the one-lane case, over
`PredSet`s and `Relation`s.  `ht_total`, `ht_partial` and `wp_formula`
write correctness triples and wp as S-formulas.  This is the law suite's
one engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Union

from .errors import ArityMismatchError, UnboundStateVariableError, UnboundSymbolError
from .predicates import BoolConst, Conn, Not, PredExpr, PredSet, subexpressions
from .semantics import Relation
from .state_space import StateSpace

SFormula = PredExpr  # for type hints: an S-formula is a predicate expression


@dataclass(frozen=True)
class PredApp(PredExpr):
    """P(x): the state bound to x lies in the set bound to P."""

    symbol: str
    var: str


@dataclass(frozen=True)
class RelApp(PredExpr):
    """S(x, y): the pair of states bound to (x, y) lies in the relation bound to S."""

    symbol: str
    var1: str
    var2: str


@dataclass(frozen=True)
class Quant(PredExpr):
    """forall var. body, or exists var. body: op is "forall" or "exists"."""

    op: str
    var: str
    body: PredExpr

    def __post_init__(self):
        if self.op not in ("forall", "exists"):
            raise ValueError(f"bad Quant operator {self.op!r}")


def symbol_arities(f: SFormula) -> dict[str, int]:
    """Map each symbol to 1 (predicate) or 2 (relation); mixed use raises."""
    out: dict[str, int] = {}
    for g in subexpressions(f):
        if isinstance(g, (PredApp, RelApp)):
            arity = 1 if isinstance(g, PredApp) else 2
            prev = out.setdefault(g.symbol, arity)
            if prev != arity:
                raise ArityMismatchError(g.symbol, f"used with arity {prev} and {arity}")
    return out


Binding = Union[PredSet, Relation]


def _check_env(f: SFormula, env: Mapping[str, Binding], space: StateSpace):
    kinds = ("predicate", "relation")  # by arity
    for symbol, arity in symbol_arities(f).items():
        if symbol not in env:
            raise UnboundSymbolError(symbol)
        binding = env[symbol]
        if not isinstance(binding, (PredSet, Relation)[arity - 1]):
            raise ArityMismatchError(symbol, f"used as a {kinds[arity - 1]} but bound to a {kinds[2 - arity]}")
        size = binding.size if arity == 1 else binding.space.size
        if size != space.size:
            raise ValueError(f"symbol '{symbol}' bound over a space of size {size}, expected {space.size}")


def eval_sformula(f: SFormula, env: Mapping[str, Binding], space: StateSpace) -> bool:
    """Truth value of a closed formula in the finite model (space, env)."""
    _check_env(f, env, space)
    fv, run = compile_sformula(f)
    if fv:
        raise UnboundStateVariableError(fv[0])
    return bool(run(env, space.size))


# ---------------------------------------------------------------------------
# the compiler

Evaluator = Callable[[Mapping[str, Binding], int], int]
LaneEvaluator = Callable[[Mapping[str, int], int, int], int]


def compile_sformula(f: SFormula) -> tuple[tuple[str, ...], Evaluator]:
    """f's free state variables v_0, v_1, ... and its evaluator.

    The evaluator maps an environment and a state count n to a mask of
    n**k bits, k the number of free variables: bit sum(a_i * n**i) is set
    when f holds with each v_i bound to state a_i.  A closed formula's mask
    is 1 or 0.  The evaluator is unchecked: every symbol must be bound at
    its arity over n states (see `eval_sformula`).  It is the one-lane case
    of `compile_lanes`."""
    fv, run, _ = _compile(f, ())
    return fv, lambda env, n: run({sym: binding_mask(b) for sym, b in env.items()}, n, 1)


def compile_lanes(f: SFormula) -> tuple[tuple[str, ...], LaneEvaluator, int]:
    """f's free state variables, its evaluator on L environments at once (the
    lanes), and the most variables any mask of the evaluation has.  The
    evaluator maps the symbols' masks, n and L to a mask of L * n**k bits:
    bit t + L*v is bit v of lane t's `compile_sformula` mask.  A symbol's mask
    has bit t + L*i when state i is in lane t's set, t + L*(i + j*n) when the
    pair (i, j) is in lane t's relation."""
    return _compile(f, ())


def free_vars(f: SFormula) -> frozenset[str]:
    """The state variables that occur free in f."""
    return frozenset(compile_sformula(f)[0])


@lru_cache(maxsize=1024)  # laws share parts, such as a triple, and so their evaluators
def _compile(f: SFormula, scope: tuple[str, ...]) -> tuple[tuple[str, ...], LaneEvaluator, int]:
    """`scope` lists the variables bound around f, outermost first.  A
    node's variables are ordered outermost binder first, above the lane
    digit, so a quantifier always reduces its body's most significant
    digit.  A left operand that decides every lane skips the right one."""
    if isinstance(f, PredApp):
        sym = f.symbol
        return (f.var,), lambda env, n, L: env[sym], 1

    if isinstance(f, RelApp):
        sym = f.symbol
        fv = _order({f.var1, f.var2}, scope)
        return fv, _align((f.var1, f.var2), lambda env, n, L: env[sym], fv), 2

    if isinstance(f, BoolConst):
        value = f.value
        return (), lambda env, n, L: (1 << L) - 1 if value else 0, 0

    if isinstance(f, Not):
        fv, g, width = _compile(f.operand, scope)
        k = len(fv)
        return fv, lambda env, n, L: g(env, n, L) ^ (1 << L * n**k) - 1, width

    if isinstance(f, Conn):
        lv, l, lw = _compile(f.left, scope)
        rv, r, rw = _compile(f.right, scope)
        fv = _order(set(lv) | set(rv), scope)
        l, r = _align(lv, l, fv), _align(rv, r, fv)
        k, op = len(fv), f.op

        def run(env, n, L):
            m, ones = l(env, n, L), (1 << L * n**k) - 1
            if op == "<->":
                return m ^ r(env, n, L) ^ ones
            if op == "->":
                m ^= ones  # a -> b is (not a) or b
            if op == "&&":
                return m and m & r(env, n, L)
            return m if m == ones else m | r(env, n, L)

        return fv, run, max(lw, rw, k)

    if isinstance(f, Quant):
        bv, body, width = _compile(f.body, scope + (f.var,))
        if f.var not in bv:
            bv, body = bv + (f.var,), _align(bv, body, bv + (f.var,))
        k, every = len(bv), f.op == "forall"

        # The body's mask is n blocks, one for each state of f.var, of a lane
        # for each valuation of the other variables: combine the blocks.
        def quantify(env, n, L):
            m, block = body(env, n, L), L * n ** (k - 1)
            ones = (1 << block) - 1
            out = ones if every else 0
            for _ in range(n):
                out = out & m if every else out | m
                m >>= block
            return out & ones

        return bv[:-1], quantify, max(width, k)

    raise TypeError(f"not a formula: {f!r}")


def _order(names, scope: tuple[str, ...]) -> tuple[str, ...]:
    """Outermost binder first, after the variables no binder in `scope`
    binds, which come by name."""
    depth = {v: i for i, v in enumerate(scope)}  # a later binder shadows
    return tuple(sorted(names, key=lambda v: (depth.get(v, -1), v)))


def _align(src: tuple[str, ...], run: LaneEvaluator, dst: tuple[str, ...]) -> LaneEvaluator:
    """`run` re-indexed from the variables `src` (which may repeat one) to
    `dst`, which holds each of them."""
    if src == dst:
        return run
    picks = tuple(dst.index(v) for v in src)
    return lambda env, n, L: _gather(run(env, n, L), L, _sources(n, picks, len(dst)))


@lru_cache(maxsize=16)
def binding_mask(b: Binding) -> int:
    """One lane's mask of a binding: a set's mask, or a relation's pairs as
    n*n bits, bit i + j*n for the pair (i, j)."""
    if isinstance(b, PredSet):
        return b.mask
    return sum(1 << i + j * b.space.size for i, j in b.pairs())


@lru_cache(maxsize=256)
def _sources(n: int, picks: tuple[int, ...], width: int) -> tuple[int, ...]:
    """For each valuation of `width` variables, the valuation of the
    variables at positions `picks`."""
    return tuple(sum(t // n**p % n * n**i for i, p in enumerate(picks)) for t in range(n**width))


def _gather(m: int, L: int, sources: tuple[int, ...]) -> int:
    """Lane block t of the result is lane block sources[t] of m."""
    out, lane = 0, (1 << L) - 1
    for t, s in enumerate(sources):
        out |= (m >> s * L & lane) << t * L
    return out


# ---------------------------------------------------------------------------
# triples and wp as S-formulas

OnePlace = Union[str, Callable[[str], SFormula]]


def _at(p: OnePlace, v: str) -> SFormula:
    """A one-place predicate, a symbol or a formula maker, applied to v."""
    return PredApp(p, v) if isinstance(p, str) else p(v)


def _wlp(rel: str, post: OnePlace, x: str) -> SFormula:
    """Every S-successor of x satisfies Q."""
    y = x + "'"
    return Quant("forall", y, Conn("->", RelApp(rel, x, y), _at(post, y)))


def wp_formula(rel: str, post: OnePlace, x: str = "x") -> SFormula:
    """wp(S, Q) with free variable x: x has an S-successor, and every
    S-successor of x satisfies Q (Dijkstra 1975)."""
    return Conn("&&", Quant("exists", x + "'", RelApp(rel, x, x + "'")), _wlp(rel, post, x))


def ht_total(pre: OnePlace, rel: str, post: OnePlace) -> SFormula:
    """The total-correctness triple {P} S {Q}:
    forall x. P(x) -> (exists y. S(x,y)) and forall y. (S(x,y) -> Q(y))."""
    return Quant("forall", "x", Conn("->", _at(pre, "x"), wp_formula(rel, post)))


def ht_partial(pre: OnePlace, rel: str, post: OnePlace) -> SFormula:
    """The partial-correctness triple {P} S {Q}:
    forall x. P(x) -> forall y. (S(x,y) -> Q(y))."""
    return Quant("forall", "x", Conn("->", _at(pre, "x"), _wlp(rel, post, "x")))
