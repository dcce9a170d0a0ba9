"""Executable law suite: algebraic facts about triples, wp, and quantifiers.

Every registered law is a closed S-formula (see `formulas`).  The laws
about total-correctness triples and weakest preconditions are stated
through the paper's definitions, `formulas.ht_total` and
`formulas.wp_formula`, over one relation symbol S; the quantifier schemas
are plain first-order templates.  Each formula is checked and compiled once,
when it is registered, and its compiled masks run on every trial.
Laws are checked on small abstract spaces with three binding strategies:

* forced boundary bindings (empty/full predicate sets; empty/full/identity
  relations),
* full enumeration of every possible binding when that is small enough
  (always at sizes 1 and 2 for the shapes used here),
* seeded random trials, reproducible from (seed, law, size, trial, symbol).

A handful of registered entries are deliberate non-theorems (negative
controls).  They prove the machinery can detect falsehood and are excluded
from the default run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import UnboundStateVariableError, UnknownLawError
from .formulas import (
    Binding,
    Evaluator,
    Exists,
    FAnd,
    FIff,
    FImplies,
    FNot,
    FOr,
    Forall,
    PredApp,
    RelApp,
    SFormula,
    compile_sformula,
    ht_total,
    symbol_arities,
    wp_formula,
)
from .predicates import PredSet
from .rng import SplitMix64, derive_seed
from .semantics import (
    Relation,
    empty_relation,
    full_relation,
    identity_relation,
)
from .state_space import Domain, StateSpace, VarUniverse, build_space

DEFAULT_SEED = 0x5CA1C0DE
DEFAULT_TRIALS = 200
DEFAULT_SIZES = (1, 2, 3, 4)
EXHAUSTIVE_LIMIT = 5000
_EXHAUSTIVE_HARD_CAP = 1 << 20
# symbols every trial binds alike: the full and the empty predicate set
FIXED = {"tau": PredSet.full, "phi": PredSet.empty}


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
    checker: Evaluator
    fixed: tuple[str, ...] = ()
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
    law: str
    trials: int
    violations: tuple[LawInstance, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


LAWS: dict[str, Law] = {}


def _register(name: str, title: str, formula: SFormula, expect_violations: bool = False):
    """Register the law that the closed `formula` holds.  Each trial binds
    exactly the formula's own symbols, at their arities and over the
    trial's space (the `FIXED` ones as that table says), so the formula is
    checked and compiled here once, and every trial runs the compiled
    masks without `eval_sformula`'s checks."""
    fv, checker = compile_sformula(formula)
    if fv:
        raise UnboundStateVariableError(fv[0])
    arities = symbol_arities(formula)
    LAWS[name] = Law(
        name,
        title,
        formula,
        tuple(sorted(sym for sym, a in arities.items() if a == 1 and sym not in FIXED)),
        tuple(sorted(sym for sym, a in arities.items() if a == 2)),
        checker,
        tuple(sym for sym in FIXED if sym in arities),
        expect_violations,
    )


# ---------------------------------------------------------------------------
# the catalog: triple and wp laws over one relation S, then quantifier
# schemas.  A one-place predicate is a function from a variable to a formula.


def _p(sym: str):
    return lambda v: PredApp(sym, v)


def _or(a, b):
    return lambda v: FOr(a(v), b(v))


def _and(a, b):
    return lambda v: FAnd(a(v), b(v))


def _not(a):
    return lambda v: FNot(a(v))


def _subset(a, b) -> SFormula:
    return Forall("x", FImplies(a("x"), b("x")))


def _empty(a) -> SFormula:
    return Forall("x", FNot(a("x")))


def _catalog() -> list[tuple[str, str, SFormula]]:
    A, O, I, E, N = FAnd, FOr, FImplies, FIff, FNot
    fa, ex = Forall, Exists
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
    tau, phi = PredApp("tau", x), PredApp("phi", x)
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
         I(A(ht(P, Q), ht(_not(P), W)), ht("tau", _or(Q, W)))),
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
         E(ht(P, "phi"), _empty(P))),
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
         _empty(wp("phi"))),
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


def _fixed_env(law: Law, space: StateSpace) -> dict[str, Binding]:
    return {sym: FIXED[sym](space.size) for sym in law.fixed}


def _boundary_envs(law: Law, space: StateSpace) -> Iterator[dict[str, Binding]]:
    pred_options = [PredSet.empty(space.size), PredSet.full(space.size)]
    rel_options = [empty_relation(space), full_relation(space), identity_relation(space)]
    option_lists = [pred_options] * len(law.pred_symbols) + [rel_options] * len(law.rel_symbols)
    symbols = law.pred_symbols + law.rel_symbols
    for combo in itertools.product(*option_lists):
        env = _fixed_env(law, space)
        env.update(zip(symbols, combo))
        yield env


def exhaustive_binding_count(law: Law, size: int) -> int:
    return (2**size) ** len(law.pred_symbols) * (2 ** (size * size)) ** len(law.rel_symbols)


def _exhaustive_envs(law: Law, space: StateSpace) -> Iterator[dict[str, Binding]]:
    n = space.size
    pred_range = range(2**n)
    rel_range = range(2 ** (n * n))
    ranges = [pred_range] * len(law.pred_symbols) + [rel_range] * len(law.rel_symbols)
    symbols = law.pred_symbols + law.rel_symbols
    row_mask = (1 << n) - 1
    for combo in itertools.product(*ranges):
        env = _fixed_env(law, space)
        for sym, code in zip(symbols, combo):
            if sym in law.pred_symbols:
                env[sym] = PredSet(n, code)
            else:
                env[sym] = Relation(space, tuple((code >> (n * i)) & row_mask for i in range(n)))
        yield env


def _random_env(law: Law, space: StateSpace, seed: int, trial: int) -> dict[str, Binding]:
    env = _fixed_env(law, space)
    for sym in law.pred_symbols + law.rel_symbols:
        draw = random_predset if sym in law.pred_symbols else random_relation
        env[sym] = draw(space, derive_seed(seed, f"{law.name}/{space.size}/{trial}/{sym}"))
    return env


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
    violations: list[LawInstance] = []
    count = 0

    def run(space: StateSpace, phase: str, envs: Iterator[dict[str, Binding]]):
        nonlocal count
        for idx, env in enumerate(envs):
            count += 1
            if not law.checker(env, space.size):
                # a random trial replays from its seed, any other from its index
                inst_seed = derive_seed(seed, f"{law.name}/{space.size}/{idx}") if phase == "random" else idx
                bindings = tuple(sorted(env.items()))
                violations.append(LawInstance(law.name, space.size, f"{phase}-{idx}", inst_seed, bindings))

    for size in sizes:
        space = abstract_space(size)
        total = exhaustive_binding_count(law, size)
        if exhaustive_only:
            if total > _EXHAUSTIVE_HARD_CAP:
                raise ValueError(
                    f"law '{name}' has {total} bindings at size {size}; too many to enumerate"
                )
            run(space, "exhaustive", _exhaustive_envs(law, space))
            continue
        run(space, "boundary", _boundary_envs(law, space))
        if total <= EXHAUSTIVE_LIMIT:
            run(space, "exhaustive", _exhaustive_envs(law, space))
        run(space, "random", (_random_env(law, space, seed, trial) for trial in range(trials)))
    return LawResult(law.name, count, tuple(violations))


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
