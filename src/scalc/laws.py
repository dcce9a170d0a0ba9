"""Executable law suite: algebraic facts about triples, wp, and quantifiers.

Every registered law is a closed S-formula (see `formulas`).  The laws
about total-correctness triples and weakest preconditions are stated
through the paper's definitions, `formulas.ht_total` and
`formulas.wp_formula`, over one relation symbol S; the quantifier schemas
are plain first-order templates.  The always-true and always-false
predicates tau and phi are the constants `BoolConst(True)` and
`BoolConst(False)`, so a trial binds only the formula's own symbols and
nothing by convention.  Each formula is checked and compiled once, when it
is registered, and its compiled masks run on every trial.
Laws are checked on small abstract spaces with three binding strategies:

* forced boundary bindings (empty/full predicate sets; empty/full/identity
  relations),
* full enumeration of every possible binding when that is small enough
  (always at sizes 1 and 2 for the shapes used here),
* seeded random trials, reproducible from (seed, law, size, trial, symbol).

A phase's bindings at one size run as the lanes of one evaluation (see
`formulas.compile_lanes`), in chunks of as many lanes as keep every mask
within `LANE_BITS` bits.  Violations are counted in the lanes; their
bindings are built as sets and relations only when `LawResult.violations`
is first read.

A handful of registered entries are deliberate non-theorems (negative
controls).  They prove the machinery can detect falsehood and are excluded
from the default run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import itemgetter

from .errors import TooManyBindingsError, UnboundStateVariableError, UnknownLawError
from .formulas import (
    Binding,
    LaneEvaluator,
    PredApp,
    Quant,
    RelApp,
    SFormula,
    compile_lanes,
    ht_total,
    symbol_arities,
    wp_formula,
)
from .predicates import BoolConst, Conn, Not, PredSet
from .rng import SplitMix64, derive_seeds, lane_bits
from .semantics import Relation
from .state_space import Domain, StateSpace, VarUniverse, build_space

DEFAULT_SEED = 0x5CA1C0DE
DEFAULT_TRIALS = 200
DEFAULT_SIZES = (1, 2, 3, 4)
EXHAUSTIVE_LIMIT = 5000
_EXHAUSTIVE_HARD_CAP = 1 << 20
LANE_BITS = 1 << 16  # a chunk holds as many lanes as keep its widest mask within this


@lru_cache(maxsize=None)
def abstract_space(size: int) -> StateSpace:
    """An anonymous space with `size` states (one variable, values 0..size-1)."""
    universe = VarUniverse((("s", Domain("s", tuple(range(size)))),))
    return build_space(universe)


def random_predset(space: StateSpace, seed: int) -> PredSet:
    """Each state independently a member with probability one half."""
    rng = SplitMix64(seed)
    return PredSet(space.size, rng.bits(space.size))


def random_relation(space: StateSpace, seed: int) -> Relation:
    """Each pair independently present with probability one half."""
    rng = SplitMix64(seed)
    return Relation(space, tuple(rng.bits(space.size) for _ in range(space.size)))


# ---------------------------------------------------------------------------
# law plumbing


@dataclass(frozen=True)
class Law:
    name: str
    title: str
    formula: SFormula
    pred_symbols: tuple[str, ...]
    rel_symbols: tuple[str, ...]
    lanes: LaneEvaluator
    width: int  # variables of the widest mask the evaluation makes
    expect_violations: bool = False


@dataclass(frozen=True)
class LawInstance:
    """One concrete binding that was evaluated (kept for violation reports)."""

    law: str
    size: int
    label: str
    seed: int
    bindings: tuple[tuple[str, Binding], ...]


@dataclass(frozen=True)
class LawResult:
    """How many trials ran and how many of them violated the law.  The
    violating bindings are rebuilt from `misses` when `violations` is first
    read."""

    law: str
    trials: int
    violation_count: int
    # each chunk with a violation: (size, phase, its bit-plane generator, first
    # lane's index, lanes, lane verdicts with bit t set when lane t holds)
    misses: tuple[tuple, ...] = field(compare=False, repr=False)
    seed: int = field(compare=False, repr=False)  # the random phase's base seed

    @property
    def ok(self) -> bool:
        return not self.violation_count

    @cached_property
    def violations(self) -> tuple[LawInstance, ...]:
        """Each violating binding, in trial order, decoded from its chunk's
        bit planes as its phase's generator rebuilds them; a random trial
        replays from its seed, any other from its index."""
        law = get_law(self.law)
        symbols = law.pred_symbols + law.rel_symbols
        arities = [1] * len(law.pred_symbols) + [2] * len(law.rel_symbols)
        instances = []
        for n, phase, planes_of, t0, L, ok in self.misses:
            space = abstract_space(n)
            planes = [planes_of(j, t0, L) for j in range(len(symbols))]
            hits = [t for t, bit in enumerate(format(ok, f"0{L}b")[::-1]) if bit == "0"]
            replays = [t0 + t for t in hits]
            if phase == "random":
                labels = (f"{law.name}/{n}/{idx}" for idx in replays)
                replays = struct.unpack(f"<{len(hits)}Q", derive_seeds(self.seed, labels))
            for t, inst_seed in zip(hits, replays):
                env = {sym: _decode(p, t, space, a) for sym, p, a in zip(symbols, planes, arities)}
                bindings = tuple(sorted(env.items()))
                instances.append(LawInstance(law.name, n, f"{phase}-{t0 + t}", inst_seed, bindings))
        return tuple(instances)


LAWS: dict[str, Law] = {}


def _register(name: str, title: str, formula: SFormula, expect_violations: bool = False):
    """Register the law that the closed `formula` holds.  Each trial binds
    exactly the formula's own symbols, at their arities and over the trial's
    space, so the formula is checked and compiled here once, and every trial
    runs the compiled masks without `eval_sformula`'s checks."""
    fv, lanes, width = compile_lanes(formula)
    if fv:
        raise UnboundStateVariableError(fv[0])
    arities = symbol_arities(formula)
    LAWS[name] = Law(
        name,
        title,
        formula,
        tuple(sorted(sym for sym, a in arities.items() if a == 1)),
        tuple(sorted(sym for sym, a in arities.items() if a == 2)),
        lanes,
        width,
        expect_violations,
    )


# ---------------------------------------------------------------------------
# the catalog: triple and wp laws over one relation S, then quantifier
# schemas.  A one-place predicate is a function from a variable to a formula.


def _p(sym: str):
    return lambda v: PredApp(sym, v)


def _or(a, b):
    return lambda v: Conn("||", a(v), b(v))


def _and(a, b):
    return lambda v: Conn("&&", a(v), b(v))


def _not(a):
    return lambda v: Not(a(v))


def _subset(a, b) -> SFormula:
    return Quant("forall", "x", Conn("->", a("x"), b("x")))


def _empty(a) -> SFormula:
    return Quant("forall", "x", Not(a("x")))


def _catalog() -> list[tuple[str, str, SFormula]]:
    A, O, I, E = (partial(Conn, op) for op in ("&&", "||", "->", "<->"))
    N, fa, ex = Not, partial(Quant, "forall"), partial(Quant, "exists")
    P, Q, R, U, V, W = map(_p, "PQRUVW")

    def ht(pre, post):
        return ht_total(pre, "S", post)

    def wp(post):
        return lambda v: wp_formula("S", post, v)

    def s(a: str, b: str) -> SFormula:
        return RelApp("S", a, b)

    x, y, u = "x", "y", "u"
    total = fa(x, ex(y, s(x, y)))
    bad_pair = ex(x, ex(y, A(s(x, y), N(Q(y)))))
    exclusive = I(ht(_not(P), Q), N(ht(P, Q)))
    F, G, H, K = (PredApp(c, x) for c in "FGHK")
    tau, phi = BoolConst(True), BoolConst(False)
    true, false = (lambda v: tau), (lambda v: phi)  # as one-place predicates
    closed = ex(u, PredApp("F", u))
    return [
        ("thm3.1a", "strengthening the precondition preserves a triple",
         I(A(_subset(P, R), ht(R, Q)), ht(P, Q))),
        ("thm3.1b", "weakening the postcondition preserves a triple",
         I(A(ht(P, R), _subset(R, Q)), ht(P, Q))),
        ("thm3.1c", "consequence applied on both sides of a triple",
         I(A(A(_subset(U, P), _subset(Q, V)), ht(P, Q)), ht(U, V))),
        ("thm3.2a", "two triples over one program disjoin pointwise",
         I(A(ht(P, Q), ht(R, W)), ht(_or(P, R), _or(Q, W)))),
        ("thm3.2b", "two triples over one program conjoin pointwise",
         I(A(ht(P, Q), ht(R, W)), ht(_and(P, R), _and(Q, W)))),
        ("cor3.1", "case split over a predicate and its negation covers every state",
         I(A(ht(P, Q), ht(_not(P), W)), ht(true, _or(Q, W)))),
        ("thm3.3", "either of two triples bounds the conjoined-precondition triple",
         I(O(ht(P, Q), ht(R, W)), ht(_and(P, R), _or(Q, W)))),
        ("thm3.4a", "a disjunctive precondition splits into two triples",
         E(ht(_or(P, R), Q), A(ht(P, Q), ht(R, Q)))),
        ("thm3.4b", "a conjunctive postcondition splits into two triples",
         E(ht(P, _and(Q, R)), A(ht(P, Q), ht(P, R)))),
        ("thm3.4c", "disjunctive precondition and conjunctive postcondition split four ways",
         E(ht(_or(P, U), _and(Q, W)), A(A(A(ht(P, Q), ht(U, W)), ht(P, W)), ht(U, Q)))),
        ("thm3.4d", "either postcondition alternative implies their disjunction",
         I(O(ht(P, Q), ht(P, W)), ht(P, _or(Q, W)))),
        ("thm3.5", "only an unsatisfiable precondition establishes the false postcondition",
         E(ht(P, false), _empty(P))),
        ("thm3.6a", "contradictory postconditions exclude overlapping preconditions",
         I(A(ht(P, Q), ht(R, _not(Q))), _empty(_and(P, R)))),
        ("thm3.6b", "one precondition establishing Q and not-Q must be unsatisfiable",
         E(A(ht(P, Q), ht(P, _not(Q))), _empty(P))),
        ("thm3.6c", "postcondition negation flips the triple exactly on satisfiable preconditions",
         E(I(ht(P, _not(Q)), N(ht(P, Q))), N(_empty(P)))),
        ("thm3.6d", "complementary preconditions characterize totality with a universal postcondition",
         E(A(ht(P, Q), ht(_not(P), Q)), A(total, fa(x, fa(y, I(s(x, y), Q(y))))))),
        ("thm3.6e", "a reachable bad outcome makes complementary triples exclusive",
         I(bad_pair, exclusive)),
        ("cor3.2", "unsatisfiable precondition, stated as equivalence with falsehood",
         E(A(ht(P, Q), ht(P, _not(Q))), _empty(P))),
        ("cor3.3", "satisfiable precondition, stated as non-equivalence with falsehood",
         E(I(ht(P, _not(Q)), N(ht(P, Q))), N(_empty(P)))),
        ("thm5.2", "wp of the false postcondition is empty",
         _empty(wp(false))),
        ("thm5.3", "wp is monotone in the postcondition",
         I(_subset(Q, R), _subset(wp(Q), wp(R)))),
        ("thm5.4", "wp distributes over conjunction exactly",
         fa(x, E(_and(wp(Q), wp(R))(x), wp(_and(Q, R))(x)))),
        ("thm5.5", "wp half-distributes over disjunction",
         _subset(_or(wp(Q), wp(R)), wp(_or(Q, R)))),
        ("thm5.6", "no state guarantees both a postcondition and its negation",
         _empty(_and(wp(Q), wp(_not(Q))))),
        ("thm5.7", "a triple holds exactly when the precondition entails wp",
         E(ht(P, Q), _subset(P, wp(Q)))),
        ("negative-control-1", "broken variant: a single triple cannot bound the disjoined-precondition triple",
         I(O(ht(P, Q), ht(R, W)), ht(_or(P, R), _or(Q, W)))),
        ("negative-control-2", "broken variant: wp does not fully distribute over disjunction",
         _subset(wp(_or(Q, R)), _or(wp(Q), wp(R)))),
        ("thm3.6d-variant", "broken variant: universal postcondition applied to the initial state",
         E(A(ht(P, Q), ht(_not(P), Q)), A(total, fa(x, I(ex(y, s(x, y)), Q(x)))))),
        ("thm3.6e-converse", "broken variant: exclusivity of complementary triples does not force a bad outcome",
         I(exclusive, bad_pair)),
        ("t1", "adjacent universal quantifiers commute",
         E(fa(x, fa(y, s(x, y))), fa(y, fa(x, s(x, y))))),
        ("t2", "a uniform witness serves every instance",
         I(ex(x, fa(y, s(x, y))), fa(y, ex(x, s(x, y))))),
        ("t3", "quantifying a closed formula changes nothing",
         E(fa(x, closed), closed)),
        ("t4", "universal quantification distributes over conjunction",
         E(fa(x, A(F, G)), A(fa(x, F), fa(x, G)))),
        ("t5", "disjoined universals imply a universal disjunction",
         I(O(fa(x, F), fa(x, G)), fa(x, O(F, G)))),
        ("t6", "a negated universal is an existential negation",
         fa(y, E(N(fa(x, s(x, y))), ex(x, N(s(x, y)))))),
        ("t7", "universal truth equals pointwise equivalence with truth",
         E(fa(x, F), fa(x, E(F, tau)))),
        ("t8", "a true antecedent can be dropped",
         E(fa(x, I(tau, F)), fa(x, F))),
        ("t9", "universal falsity equals pointwise equivalence with falsehood",
         E(fa(x, N(F)), fa(x, E(F, phi)))),
        ("t10", "conjunction with itself changes nothing",
         fa(x, E(F, A(F, F)))),
        ("t11", "a formula implies its disjunction with anything",
         fa(x, I(F, O(F, G)))),
        ("t12", "negated conjunctions split into disjoined negations",
         E(fa(x, O(N(F), N(G))), fa(x, N(A(F, G))))),
        ("t13", "negated disjunctions split into conjoined negations",
         E(fa(x, A(N(F), N(G))), fa(x, N(O(F, G))))),
        ("t14", "a universal implication carries universals along",
         I(fa(x, I(F, G)), I(fa(x, F), fa(x, G)))),
        ("t15", "implication rewrites as disjunction with the negated antecedent",
         E(fa(x, I(F, G)), fa(x, O(N(F), G)))),
        ("t16", "implication chains compose",
         I(fa(x, A(I(F, H), I(H, G))), fa(x, I(F, G)))),
        ("t17", "implications combine across disjunction",
         I(fa(x, A(I(F, G), I(H, K))), fa(x, I(O(F, H), O(G, K))))),
        ("t18", "implications combine across conjunction",
         I(fa(x, A(I(F, G), I(H, K))), fa(x, I(A(F, H), A(G, K))))),
        ("t19", "a shared antecedent factors out of conjoined implications",
         E(fa(x, A(I(F, G), I(F, H))), fa(x, I(F, A(G, H))))),
        ("t20", "a shared antecedent factors out of disjoined implications",
         E(fa(x, O(I(F, G), I(F, H))), fa(x, I(F, O(G, H))))),
        ("t21", "a shared consequent factors out of disjoined antecedents",
         E(fa(x, A(I(F, H), I(G, H))), fa(x, I(O(F, G), H)))),
        ("t22", "disjoined implications bound the combined implication",
         I(fa(x, O(I(F, G), I(H, K))), fa(x, I(A(F, H), O(G, K))))),
        ("t11-variant", "broken variant: the absorption implication is not an equivalence",
         fa(x, E(F, O(F, G)))),
        ("t20-variant", "broken variant: conjoined implications do not match the disjunctive consequent",
         E(fa(x, A(I(F, G), I(F, H))), fa(x, I(F, O(G, H))))),
    ]


NEGATIVE_CONTROLS = frozenset(
    {
        "negative-control-1",
        "negative-control-2",
        "thm3.6d-variant",
        "thm3.6e-converse",
        "t11-variant",
        "t20-variant",
    }
)

for _entry in _catalog():
    _register(*_entry, expect_violations=_entry[0] in NEGATIVE_CONTROLS)


# ---------------------------------------------------------------------------
# binding generation and the checking loop


def exhaustive_binding_count(law: Law, size: int) -> int:
    return (2**size) ** len(law.pred_symbols) * (2 ** (size * size)) ** len(law.rel_symbols)


# A phase numbers its bindings, the boundary and exhaustive ones in
# `itertools.product` order over the symbols (the last symbol's varies
# fastest), and gives symbol j's code bits over the lanes [t0, t0 + count)
# as bit planes.  A predicate set's code has bit i for state i, and a
# relation's has bit n*i + j for the pair (i, j): its successor rows.


def _digit_lanes(t0: int, count: int, stride: int, radix: int, values: set[int]) -> bytes:
    """b"1" for each lane t < count whose binding t0 + t has digit
    (t0 + t) // stride % radix in `values`, b"0" for the others."""
    block = b"".join((b"1" if v in values else b"0") * stride for v in range(radix))
    start = t0 % len(block)
    return (block * ((start + count) // len(block) + 1))[start : start + count]


def _boundary(law: Law, n: int, j: int, t0: int, count: int) -> list[bytes]:
    """Each predicate empty or full, each relation empty, full or the
    identity."""
    radices = [2] * len(law.pred_symbols) + [3] * len(law.rel_symbols)
    stride = math.prod(radices[j + 1 :])
    full = _digit_lanes(t0, count, stride, radices[j], {1})
    if radices[j] == 2:
        return [full] * n
    diagonal = _digit_lanes(t0, count, stride, 3, {1, 2})
    return [full if c % (n + 1) else diagonal for c in range(n * n)]


def _exhaustive(law: Law, n: int, j: int, t0: int, count: int) -> list[bytes]:
    """Every binding: the symbols' codes, counted up."""
    bits = [n] * len(law.pred_symbols) + [n * n] * len(law.rel_symbols)
    stride = 2 ** sum(bits[j + 1 :])
    return [_digit_lanes(t0, count, stride << c, 2, {1}) for c in range(bits[j])]


def _random(law: Law, n: int, seed: int, j: int, t0: int, count: int) -> list[bytes]:
    """Trial t binds each symbol from `derive_seed(seed, f"{law}/{n}/{t}/{sym}")`,
    as `random_predset` and `random_relation` do."""
    sym = (law.pred_symbols + law.rel_symbols)[j]
    seeds = derive_seeds(seed, (f"{law.name}/{n}/{t}/{sym}" for t in range(t0, t0 + count)))
    return lane_bits(seeds, n, 1 if j < len(law.pred_symbols) else n)


def _pack(planes: list[bytes], n: int, arity: int) -> int:
    """A symbol's lane-packed mask from its code bit planes."""
    if arity == 2:  # code bit n*i + j is the pair (i, j), mask position i + j*n
        planes = [planes[n * i + j] for j in range(n) for i in range(n)]
    return int(b"".join(planes)[::-1], 2)


def _decode(planes: list[bytes], t: int, space: StateSpace, arity: int) -> Binding:
    """Lane t's binding, from its code bit planes."""
    code = int(bytes(map(itemgetter(t), planes))[::-1], 2)
    n = space.size
    if arity == 1:
        return PredSet(n, code)
    return Relation(space, tuple(code >> n * i & (1 << n) - 1 for i in range(n)))


def get_law(name: str) -> Law:
    try:
        return LAWS[name]
    except KeyError:
        raise UnknownLawError(name) from None


def registered_laws(include_negative_controls: bool = False) -> tuple[Law, ...]:
    return tuple(
        law for law in LAWS.values() if include_negative_controls or not law.expect_violations
    )


def check_law(
    name: str,
    trials: int = DEFAULT_TRIALS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = DEFAULT_SEED,
    exhaustive_only: bool = False,
) -> LawResult:
    """Evaluate one law across the given sizes; see the module docstring for
    how bindings are produced.  `exhaustive_only` enumerates every binding
    and skips the boundary/random phases (sizes must stay tiny)."""
    law = get_law(name)
    symbols = law.pred_symbols + law.rel_symbols
    arities = [1] * len(law.pred_symbols) + [2] * len(law.rel_symbols)
    misses: list[tuple] = []
    count = failed = 0
    for n in sizes:
        total = exhaustive_binding_count(law, n)
        if exhaustive_only and total > _EXHAUSTIVE_HARD_CAP:
            raise TooManyBindingsError(
                f"law '{name}' has {total} bindings at size {n}; too many to enumerate"
            )
        boundary = 2 ** len(law.pred_symbols) * 3 ** len(law.rel_symbols)
        phases = [] if exhaustive_only else [("boundary", boundary, partial(_boundary, law, n))]
        if exhaustive_only or total <= EXHAUSTIVE_LIMIT:
            phases.append(("exhaustive", total, partial(_exhaustive, law, n)))
        if not exhaustive_only:
            phases.append(("random", trials, partial(_random, law, n, seed)))
        lanes = max(1, LANE_BITS // n**law.width)
        for phase, number, planes_of in phases:
            count += number
            for t0 in range(0, number, lanes):
                L = min(lanes, number - t0)
                planes = [planes_of(j, t0, L) for j in range(len(symbols))]
                masks = {sym: _pack(p, n, a) for sym, p, a in zip(symbols, planes, arities)}
                ok = law.lanes(masks, n, L)
                if ok.bit_count() < L:
                    failed += L - ok.bit_count()
                    misses.append((n, phase, planes_of, t0, L, ok))
    return LawResult(law.name, count, failed, tuple(misses), seed)


def run_laws(
    names=None,
    trials: int = DEFAULT_TRIALS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = DEFAULT_SEED,
    exhaustive_only: bool = False,
) -> list[LawResult]:
    """Check the named laws (default: all except negative controls), in
    registration order."""
    if names is None:
        names = [law.name for law in registered_laws()]
    return [
        check_law(n, trials=trials, sizes=sizes, seed=seed, exhaustive_only=exhaustive_only)
        for n in names
    ]
