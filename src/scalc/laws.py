"""Executable law suite: algebraic facts about triples, wp, and quantifiers.

Every registered law is either a set-level fact about total-correctness
triples / weakest preconditions (checked through check_total and wp on
explicit sets) or a closed first-order template, checked once when it is
registered and then evaluated on every trial.
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
from typing import Callable, Iterator, Mapping, Union

from .errors import UnboundStateVariableError, UnknownLawError
from .formulas import (
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
    evaluate,
    free_vars,
    symbol_arities,
)
from .hoare import check_total, wp
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

Binding = Union[PredSet, Relation]


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
    pred_symbols: tuple[str, ...]
    rel_symbols: tuple[str, ...]
    checker: Callable[[Mapping[str, Binding], StateSpace], bool]
    fixed_full: tuple[str, ...] = ()
    fixed_empty: tuple[str, ...] = ()
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


def _register(
    name: str,
    title: str,
    preds: str,
    rels: str,
    checker,
    fixed_full=(),
    fixed_empty=(),
    expect_violations=False,
):
    LAWS[name] = Law(
        name,
        title,
        tuple(preds.split()) if preds else (),
        tuple(rels.split()) if rels else (),
        checker,
        tuple(fixed_full),
        tuple(fixed_empty),
        expect_violations,
    )


def _ht(p: PredSet, s: Relation, q: PredSet) -> bool:
    return check_total(p, s, q).holds


def _imp(a: bool, b: bool) -> bool:
    return (not a) or b


def _range_set(s: Relation) -> PredSet:
    """All states reachable as a final state of any pair."""
    mask = 0
    for m in s.succ:
        mask |= m
    return PredSet(s.space.size, mask)


def _has_bad_pair(s: Relation, q: PredSet) -> bool:
    """Some pair of s ends outside q."""
    return any(m & ~q.mask for m in s.succ)


# ---------------------------------------------------------------------------
# triple and wp laws (set level; every triple goes through check_total)


def _install_triple_laws():
    E = PredSet.empty
    F = PredSet.full

    _register(
        "thm3.1a",
        "strengthening the precondition preserves a triple",
        "P R Q",
        "S",
        lambda b, sp: _imp(
            b["P"].subset_of(b["R"]) and _ht(b["R"], b["S"], b["Q"]),
            _ht(b["P"], b["S"], b["Q"]),
        ),
    )
    _register(
        "thm3.1b",
        "weakening the postcondition preserves a triple",
        "P R Q",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["R"]) and b["R"].subset_of(b["Q"]),
            _ht(b["P"], b["S"], b["Q"]),
        ),
    )
    _register(
        "thm3.1c",
        "consequence applied on both sides of a triple",
        "U P Q V",
        "S",
        lambda b, sp: _imp(
            b["U"].subset_of(b["P"])
            and b["Q"].subset_of(b["V"])
            and _ht(b["P"], b["S"], b["Q"]),
            _ht(b["U"], b["S"], b["V"]),
        ),
    )
    _register(
        "thm3.2a",
        "two triples over one program disjoin pointwise",
        "P Q R W",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], b["W"]),
            _ht(b["P"] | b["R"], b["S"], b["Q"] | b["W"]),
        ),
    )
    _register(
        "thm3.2b",
        "two triples over one program conjoin pointwise",
        "P Q R W",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], b["W"]),
            _ht(b["P"] & b["R"], b["S"], b["Q"] & b["W"]),
        ),
    )
    _register(
        "cor3.1",
        "case split over a predicate and its negation covers every state",
        "P Q W",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) and _ht(~b["P"], b["S"], b["W"]),
            _ht(F(sp.size), b["S"], b["Q"] | b["W"]),
        ),
    )
    _register(
        "thm3.3",
        "either of two triples bounds the conjoined-precondition triple",
        "P Q R W",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) or _ht(b["R"], b["S"], b["W"]),
            _ht(b["P"] & b["R"], b["S"], b["Q"] | b["W"]),
        ),
    )
    _register(
        "thm3.4a",
        "a disjunctive precondition splits into two triples",
        "P R Q",
        "S",
        lambda b, sp: _ht(b["P"] | b["R"], b["S"], b["Q"])
        == (_ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], b["Q"])),
    )
    _register(
        "thm3.4b",
        "a conjunctive postcondition splits into two triples",
        "P Q R",
        "S",
        lambda b, sp: _ht(b["P"], b["S"], b["Q"] & b["R"])
        == (_ht(b["P"], b["S"], b["Q"]) and _ht(b["P"], b["S"], b["R"])),
    )
    _register(
        "thm3.4c",
        "disjunctive precondition and conjunctive postcondition split four ways",
        "P U Q W",
        "S",
        lambda b, sp: _ht(b["P"] | b["U"], b["S"], b["Q"] & b["W"])
        == (
            _ht(b["P"], b["S"], b["Q"])
            and _ht(b["U"], b["S"], b["W"])
            and _ht(b["P"], b["S"], b["W"])
            and _ht(b["U"], b["S"], b["Q"])
        ),
    )
    _register(
        "thm3.4d",
        "either postcondition alternative implies their disjunction",
        "P Q W",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) or _ht(b["P"], b["S"], b["W"]),
            _ht(b["P"], b["S"], b["Q"] | b["W"]),
        ),
    )
    _register(
        "thm3.5",
        "only an unsatisfiable precondition establishes the false postcondition",
        "P",
        "S",
        lambda b, sp: _ht(b["P"], b["S"], E(sp.size)) == b["P"].is_empty(),
    )
    _register(
        "thm3.6a",
        "contradictory postconditions exclude overlapping preconditions",
        "P Q R",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], ~b["Q"]),
            (b["P"] & b["R"]).is_empty(),
        ),
    )
    _register(
        "thm3.6b",
        "one precondition establishing Q and not-Q must be unsatisfiable",
        "P Q",
        "S",
        lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(b["P"], b["S"], ~b["Q"]))
        == b["P"].is_empty(),
    )
    _register(
        "thm3.6c",
        "postcondition negation flips the triple exactly on satisfiable preconditions",
        "P Q",
        "S",
        lambda b, sp: _imp(_ht(b["P"], b["S"], ~b["Q"]), not _ht(b["P"], b["S"], b["Q"]))
        == (not b["P"].is_empty()),
    )
    _register(
        "thm3.6d",
        "complementary preconditions characterize totality with a universal postcondition",
        "P Q",
        "S",
        lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(~b["P"], b["S"], b["Q"]))
        == (b["S"].domain_set().is_full() and _range_set(b["S"]).subset_of(b["Q"])),
    )
    _register(
        "thm3.6e",
        "a reachable bad outcome makes complementary triples exclusive",
        "P Q",
        "S",
        lambda b, sp: _imp(
            _has_bad_pair(b["S"], b["Q"]),
            _imp(_ht(~b["P"], b["S"], b["Q"]), not _ht(b["P"], b["S"], b["Q"])),
        ),
    )
    _register(
        "cor3.2",
        "unsatisfiable precondition, stated as equivalence with falsehood",
        "P Q",
        "S",
        lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(b["P"], b["S"], ~b["Q"]))
        == b["P"].is_empty(),
    )
    _register(
        "cor3.3",
        "satisfiable precondition, stated as non-equivalence with falsehood",
        "P Q",
        "S",
        lambda b, sp: _imp(_ht(b["P"], b["S"], ~b["Q"]), not _ht(b["P"], b["S"], b["Q"]))
        == (not b["P"].is_empty()),
    )
    _register(
        "thm5.2",
        "wp of the false postcondition is empty",
        "",
        "S",
        lambda b, sp: wp(b["S"], E(sp.size)).is_empty(),
    )
    _register(
        "thm5.3",
        "wp is monotone in the postcondition",
        "Q R",
        "S",
        lambda b, sp: _imp(
            b["Q"].subset_of(b["R"]), wp(b["S"], b["Q"]).subset_of(wp(b["S"], b["R"]))
        ),
    )
    _register(
        "thm5.4",
        "wp distributes over conjunction exactly",
        "Q R",
        "S",
        lambda b, sp: (wp(b["S"], b["Q"]) & wp(b["S"], b["R"]))
        == wp(b["S"], b["Q"] & b["R"]),
    )
    _register(
        "thm5.5",
        "wp half-distributes over disjunction",
        "Q R",
        "S",
        lambda b, sp: (wp(b["S"], b["Q"]) | wp(b["S"], b["R"])).subset_of(
            wp(b["S"], b["Q"] | b["R"])
        ),
    )
    _register(
        "thm5.6",
        "no state guarantees both a postcondition and its negation",
        "Q",
        "S",
        lambda b, sp: (wp(b["S"], b["Q"]) & wp(b["S"], ~b["Q"])).is_empty(),
    )
    _register(
        "thm5.7",
        "a triple holds exactly when the precondition entails wp",
        "P Q",
        "S",
        lambda b, sp: _ht(b["P"], b["S"], b["Q"]) == b["P"].subset_of(wp(b["S"], b["Q"])),
    )
    # negative controls on the triple/wp side
    _register(
        "negative-control-1",
        "broken variant: a single triple cannot bound the disjoined-precondition triple",
        "P Q R W",
        "S",
        lambda b, sp: _imp(
            _ht(b["P"], b["S"], b["Q"]) or _ht(b["R"], b["S"], b["W"]),
            _ht(b["P"] | b["R"], b["S"], b["Q"] | b["W"]),
        ),
        expect_violations=True,
    )
    _register(
        "negative-control-2",
        "broken variant: wp does not fully distribute over disjunction",
        "Q R",
        "S",
        lambda b, sp: wp(b["S"], b["Q"] | b["R"]).subset_of(
            wp(b["S"], b["Q"]) | wp(b["S"], b["R"])
        ),
        expect_violations=True,
    )
    _register(
        "thm3.6d-variant",
        "broken variant: universal postcondition applied to the initial state",
        "P Q",
        "S",
        lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(~b["P"], b["S"], b["Q"]))
        == (b["S"].domain_set().is_full() and b["S"].domain_set().subset_of(b["Q"])),
        expect_violations=True,
    )
    _register(
        "thm3.6e-converse",
        "broken variant: exclusivity of complementary triples does not force a bad outcome",
        "P Q",
        "S",
        lambda b, sp: _imp(
            _imp(_ht(~b["P"], b["S"], b["Q"]), not _ht(b["P"], b["S"], b["Q"])),
            _has_bad_pair(b["S"], b["Q"]),
        ),
        expect_violations=True,
    )


# ---------------------------------------------------------------------------
# quantifier schemas (closed first-order templates)

T_SCHEMA_TITLES = {
    "t1": "adjacent universal quantifiers commute",
    "t2": "a uniform witness serves every instance",
    "t3": "quantifying a closed formula changes nothing",
    "t4": "universal quantification distributes over conjunction",
    "t5": "disjoined universals imply a universal disjunction",
    "t6": "a negated universal is an existential negation",
    "t7": "universal truth equals pointwise equivalence with truth",
    "t8": "a true antecedent can be dropped",
    "t9": "universal falsity equals pointwise equivalence with falsehood",
    "t10": "conjunction with itself changes nothing",
    "t11": "a formula implies its disjunction with anything",
    "t12": "negated conjunctions split into disjoined negations",
    "t13": "negated disjunctions split into conjoined negations",
    "t14": "a universal implication carries universals along",
    "t15": "implication rewrites as disjunction with the negated antecedent",
    "t16": "implication chains compose",
    "t17": "implications combine across disjunction",
    "t18": "implications combine across conjunction",
    "t19": "a shared antecedent factors out of conjoined implications",
    "t20": "a shared antecedent factors out of disjoined implications",
    "t21": "a shared consequent factors out of disjoined antecedents",
    "t22": "disjoined implications bound the combined implication",
    "t11-variant": "broken variant: the absorption implication is not an equivalence",
    "t20-variant": "broken variant: conjoined implications do not match the disjunctive consequent",
}


def _build_t_templates() -> dict[str, SFormula]:
    def p(sym: str, v: str = "x") -> SFormula:
        return PredApp(sym, v)

    def s(a: str, b: str) -> SFormula:
        return RelApp("S", a, b)

    x, y, u = "x", "y", "u"
    F, G, H, K = p("F"), p("G"), p("H"), p("K")
    tau, phi = p("tau"), p("phi")
    A, O, I, E, N = FAnd, FOr, FImplies, FIff, FNot
    fa, ex = Forall, Exists

    closed = ex(u, p("F", u))
    t: dict[str, SFormula] = {
        "t1": E(fa(x, fa(y, s(x, y))), fa(y, fa(x, s(x, y)))),
        "t2": I(ex(x, fa(y, s(x, y))), fa(y, ex(x, s(x, y)))),
        "t3": E(fa(x, closed), closed),
        "t4": E(fa(x, A(F, G)), A(fa(x, F), fa(x, G))),
        "t5": I(O(fa(x, F), fa(x, G)), fa(x, O(F, G))),
        "t6": fa(y, E(N(fa(x, s(x, y))), ex(x, N(s(x, y))))),
        "t7": E(fa(x, F), fa(x, E(F, tau))),
        "t8": E(fa(x, I(tau, F)), fa(x, F)),
        "t9": E(fa(x, N(F)), fa(x, E(F, phi))),
        "t10": fa(x, E(F, A(F, F))),
        "t11": fa(x, I(F, O(F, G))),
        "t12": E(fa(x, O(N(F), N(G))), fa(x, N(A(F, G)))),
        "t13": E(fa(x, A(N(F), N(G))), fa(x, N(O(F, G)))),
        "t14": I(fa(x, I(F, G)), I(fa(x, F), fa(x, G))),
        "t15": E(fa(x, I(F, G)), fa(x, O(N(F), G))),
        "t16": I(fa(x, A(I(F, H), I(H, G))), fa(x, I(F, G))),
        "t17": I(fa(x, A(I(F, G), I(H, K))), fa(x, I(O(F, H), O(G, K)))),
        "t18": I(fa(x, A(I(F, G), I(H, K))), fa(x, I(A(F, H), A(G, K)))),
        "t19": E(fa(x, A(I(F, G), I(F, H))), fa(x, I(F, A(G, H)))),
        "t20": E(fa(x, O(I(F, G), I(F, H))), fa(x, I(F, O(G, H)))),
        "t21": E(fa(x, A(I(F, H), I(G, H))), fa(x, I(O(F, G), H))),
        "t22": I(fa(x, O(I(F, G), I(H, K))), fa(x, I(A(F, H), O(G, K)))),
        "t11-variant": fa(x, E(F, O(F, G))),
        "t20-variant": E(fa(x, A(I(F, G), I(F, H))), fa(x, I(F, O(G, H)))),
    }
    return t


T_TEMPLATES = _build_t_templates()


def _register_template(name: str, title: str, template: SFormula):
    """Register the law that `template` holds.  Each trial binds exactly the
    template's own symbols, at their arities and over the trial's space, so
    the template is checked here once, closed and with one arity per symbol,
    and every trial evaluates it without `eval_sformula`'s checks."""
    fv = free_vars(template)
    if fv:
        raise UnboundStateVariableError(sorted(fv)[0])
    arities = symbol_arities(template)
    preds = sorted(sym for sym, a in arities.items() if a == 1 and sym not in ("tau", "phi"))
    rels = sorted(sym for sym, a in arities.items() if a == 2)
    _register(
        name,
        title,
        " ".join(preds),
        " ".join(rels),
        lambda env, space: evaluate(template, env, {}, space),
        fixed_full=("tau",) if "tau" in arities else (),
        fixed_empty=("phi",) if "phi" in arities else (),
        expect_violations=name.endswith("-variant"),
    )


def _install_t_schemas():
    for name, template in T_TEMPLATES.items():
        _register_template(name, T_SCHEMA_TITLES[name], template)


_install_triple_laws()
_install_t_schemas()


# ---------------------------------------------------------------------------
# binding generation and the checking loop


def _fixed_env(law: Law, space: StateSpace) -> dict[str, Binding]:
    env: dict[str, Binding] = {}
    for sym in law.fixed_full:
        env[sym] = PredSet.full(space.size)
    for sym in law.fixed_empty:
        env[sym] = PredSet.empty(space.size)
    return env


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
    for sym in law.pred_symbols:
        env[sym] = random_predset(
            space, derive_seed(seed, f"{law.name}/{space.size}/{trial}/{sym}")
        )
    for sym in law.rel_symbols:
        env[sym] = random_relation(
            space, derive_seed(seed, f"{law.name}/{space.size}/{trial}/{sym}")
        )
    return env


def _instance(law: Law, space: StateSpace, label: str, seed: int, env: Mapping[str, Binding]) -> LawInstance:
    return LawInstance(law.name, space.size, label, seed, tuple(sorted(env.items())))


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

    def run(env: dict[str, Binding], space: StateSpace, label: str, inst_seed: int):
        nonlocal count
        count += 1
        if not law.checker(env, space):
            violations.append(_instance(law, space, label, inst_seed, env))

    for size in sizes:
        space = abstract_space(size)
        if exhaustive_only:
            total = exhaustive_binding_count(law, size)
            if total > _EXHAUSTIVE_HARD_CAP:
                raise ValueError(
                    f"law '{name}' has {total} bindings at size {size}; too many to enumerate"
                )
            for idx, env in enumerate(_exhaustive_envs(law, space)):
                run(env, space, f"exhaustive-{idx}", idx)
            continue
        for idx, env in enumerate(_boundary_envs(law, space)):
            run(env, space, f"boundary-{idx}", idx)
        if exhaustive_binding_count(law, size) <= EXHAUSTIVE_LIMIT:
            for idx, env in enumerate(_exhaustive_envs(law, space)):
                run(env, space, f"exhaustive-{idx}", idx)
        for trial in range(trials):
            env = _random_env(law, space, seed, trial)
            run(env, space, f"random-{trial}", derive_seed(seed, f"{law.name}/{size}/{trial}"))
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
