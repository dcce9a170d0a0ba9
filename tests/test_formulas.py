"""Formula evaluation is checked two ways: pinned cases, and agreement with
a deliberately naive reference evaluator on randomly generated closed
formulas.  The triple and wp builders are checked against `hoare`'s direct
enumeration."""

import itertools
import random

import pytest

from scalc.errors import (
    ArityMismatchError,
    UnboundStateVariableError,
    UnboundSymbolError,
)
from scalc.formulas import (
    PredApp,
    Quant,
    RelApp,
    binding_mask,
    compile_lanes,
    compile_sformula,
    eval_sformula,
    free_vars,
    ht_partial,
    ht_total,
    symbol_arities,
    wp_formula,
)
from scalc.hoare import check_partial, check_total, wp
from scalc.laws import abstract_space, random_predset, random_relation
from scalc.predicates import BoolConst, Cmp, Conn, Const, Not, PredSet, Var, compile_pred, pred_to_set
from scalc.semantics import Relation, identity_relation
from scalc.state_space import Domain, StateSpace, VarUniverse


def reference_eval(f, env, space, assign):
    """Textbook recursion, no shortcuts; the oracle for eval_sformula."""
    if isinstance(f, PredApp):
        return assign[f.var] in env[f.symbol]
    if isinstance(f, RelApp):
        return env[f.symbol].has_pair(assign[f.var1], assign[f.var2])
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Not):
        return not reference_eval(f.operand, env, space, assign)
    if isinstance(f, Conn) and f.op == "&&":
        return reference_eval(f.left, env, space, assign) and reference_eval(
            f.right, env, space, assign
        )
    if isinstance(f, Conn) and f.op == "||":
        return reference_eval(f.left, env, space, assign) or reference_eval(
            f.right, env, space, assign
        )
    if isinstance(f, Conn) and f.op == "->":
        return (not reference_eval(f.left, env, space, assign)) or reference_eval(
            f.right, env, space, assign
        )
    if isinstance(f, Conn) and f.op == "<->":
        return reference_eval(f.left, env, space, assign) == reference_eval(
            f.right, env, space, assign
        )
    if isinstance(f, Quant) and f.op == "forall":
        return all(
            reference_eval(f.body, env, space, {**assign, f.var: k})
            for k in range(space.size)
        )
    if isinstance(f, Quant) and f.op == "exists":
        return any(
            reference_eval(f.body, env, space, {**assign, f.var: k})
            for k in range(space.size)
        )
    raise AssertionError(f"unhandled node {f!r}")


class TestPinnedFormulas:
    def test_self_implication_tautology(self):
        sp = abstract_space(3)
        f = Quant("forall", "x", Conn("->", PredApp("P", "x"), PredApp("P", "x")))
        for mask in range(8):
            assert eval_sformula(f, {"P": PredSet(3, mask)}, sp)

    def test_identity_relation_is_total(self):
        sp = abstract_space(4)
        f = Quant("forall", "x", Quant("exists", "y", RelApp("S", "x", "y")))
        assert eval_sformula(f, {"S": identity_relation(sp)}, sp)

    def test_quantifier_swap_500_random_relations(self):
        f = Conn(
            "->",
            Quant("exists", "x", Quant("forall", "y", RelApp("S", "x", "y"))),
            Quant("forall", "y", Quant("exists", "x", RelApp("S", "x", "y"))),
        )
        for trial in range(500):
            sp = abstract_space(1 + trial % 4)
            s = random_relation(sp, 0xABCD + trial)
            assert eval_sformula(f, {"S": s}, sp)

    def test_one_state_space_quantifiers(self):
        sp = abstract_space(1)
        body = PredApp("P", "x")
        assert not eval_sformula(Quant("forall", "x", body), {"P": PredSet.empty(1)}, sp)
        assert eval_sformula(Quant("exists", "x", body), {"P": PredSet.full(1)}, sp)


class TestShadowing:
    def test_inner_quantifier_restores_outer_binding(self):
        sp = abstract_space(2)
        # exists x (P(x) and forall x Q(x)): after the inner forall runs, the
        # outer x must still be visible to later conjuncts
        f = Quant(
            "exists",
            "x",
            Conn(
                "&&",
                Conn("&&", PredApp("P", "x"), Quant("forall", "x", PredApp("Q", "x"))),
                PredApp("P", "x"),
            ),
        )
        env = {"P": PredSet(2, 0b01), "Q": PredSet.full(2)}
        assert eval_sformula(f, env, sp)
        env = {"P": PredSet(2, 0b01), "Q": PredSet(2, 0b01)}
        assert not eval_sformula(f, env, sp)


class TestErrors:
    def test_open_formula_rejected(self):
        sp = abstract_space(2)
        with pytest.raises(UnboundStateVariableError):
            eval_sformula(PredApp("P", "x"), {"P": PredSet.full(2)}, sp)

    def test_unbound_symbol(self):
        sp = abstract_space(2)
        with pytest.raises(UnboundSymbolError):
            eval_sformula(Quant("forall", "x", PredApp("P", "x")), {}, sp)

    def test_arity_mismatch_in_env(self):
        sp = abstract_space(2)
        f = Quant("forall", "x", PredApp("P", "x"))
        with pytest.raises(ArityMismatchError):
            eval_sformula(f, {"P": identity_relation(sp)}, sp)

    def test_mixed_arity_use_rejected(self):
        f = Quant(
            "forall",
            "x",
            Quant("forall", "y", Conn("&&", PredApp("S", "x"), RelApp("S", "x", "y"))),
        )
        with pytest.raises(ArityMismatchError):
            symbol_arities(f)

    def test_wrong_size_binding(self):
        sp = abstract_space(3)
        f = Quant("forall", "x", PredApp("P", "x"))
        with pytest.raises(ValueError):
            eval_sformula(f, {"P": PredSet.full(2)}, sp)

    def test_formula_atoms_and_program_atoms_do_not_mix(self):
        # formulas share the connectives of program predicates, not their atoms
        sp = abstract_space(2)
        formula = Conn("&&", PredApp("P", "s"), PredApp("Q", "s"))
        with pytest.raises(TypeError):
            compile_pred(formula, sp)
        with pytest.raises(TypeError):
            pred_to_set(formula, sp)
        for atom in (Cmp("==", Var("s"), Const(0)), Var("s")):
            with pytest.raises(TypeError):
                compile_lanes(Quant("forall", "x", Conn("||", PredApp("P", "x"), atom)))


class TestFreeVars:
    def test_free_and_bound(self):
        f = Quant("forall", "x", RelApp("S", "x", "y"))
        assert free_vars(f) == frozenset({"y"})
        assert free_vars(Quant("forall", "y", f)) == frozenset()

    def test_arities(self):
        f = Quant("forall", "x", Conn("&&", PredApp("P", "x"), Quant("exists", "y", RelApp("S", "x", "y"))))
        assert symbol_arities(f) == {"P": 1, "S": 2}


def random_formula(rng, bound, depth):
    """A random formula whose atoms only mention variables in `bound`; with
    no bound variables yet, force a quantifier so the result is closed."""
    if depth == 0 and bound:
        leaf = rng.random()
        if leaf < 0.4:
            return PredApp(rng.choice("PQ"), rng.choice(bound))
        if leaf < 0.8:
            return RelApp("S", rng.choice(bound), rng.choice(bound))
        return BoolConst(rng.random() < 0.5)
    if not bound or rng.random() < 0.35:
        var = rng.choice("uvw")
        op = "forall" if rng.random() < 0.5 else "exists"
        return Quant(op, var, random_formula(rng, bound + (var,), max(depth - 1, 0)))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, bound, depth - 1))
    op = ("&&", "||", "->", "<->")[kind - 1]
    return Conn(
        op, random_formula(rng, bound, depth - 1), random_formula(rng, bound, depth - 1)
    )


def test_agreement_with_reference_evaluator():
    rng = random.Random(0xF0F0)
    for trial in range(1000):
        size = rng.randrange(1, 5)
        sp = abstract_space(size)
        f = random_formula(rng, (), rng.randrange(1, 6))
        env = {}
        for sym, arity in symbol_arities(f).items():
            seed = rng.getrandbits(64)
            env[sym] = random_predset(sp, seed) if arity == 1 else random_relation(sp, seed)
        assert eval_sformula(f, env, sp) == reference_eval(f, env, sp, {}), (
            f"disagreement on trial {trial}: {f!r}"
        )


def test_agreement_on_a_space_without_states():
    # quantifiers over no state: every universal holds, every existential fails
    sp = StateSpace(VarUniverse((("s", Domain("s", ())),)), 0, (1,))
    rng = random.Random(0x0E)
    for _ in range(200):
        f = random_formula(rng, (), rng.randrange(1, 5))
        env = {
            sym: PredSet.empty(0) if arity == 1 else Relation(sp, ())
            for sym, arity in symbol_arities(f).items()
        }
        assert eval_sformula(f, env, sp) == reference_eval(f, env, sp, {}), f


def test_lanes_agree_with_one_lane_evaluation():
    # L environments packed as lanes give, lane by lane, the one-lane masks;
    # the formulas here may have free variables, so their masks are wide
    rng = random.Random(0x1A7E)
    for trial in range(300):
        n, lanes = rng.randrange(1, 5), rng.randrange(1, 10)
        sp = abstract_space(n)
        f = random_formula(rng, tuple(rng.sample("xyz", rng.randrange(0, 4))), rng.randrange(1, 5))
        draw = {1: random_predset, 2: random_relation}
        envs = [
            {sym: draw[arity](sp, rng.getrandbits(64)) for sym, arity in symbol_arities(f).items()}
            for _ in range(lanes)
        ]
        packed = {
            sym: sum(
                (binding_mask(env[sym]) >> p & 1) << t + lanes * p
                for t, env in enumerate(envs)
                for p in range(n * n)
            )
            for sym in envs[0]
        }
        fv, run, _ = compile_lanes(f)
        m = run(packed, n, lanes)
        assert m >> lanes * n ** len(fv) == 0, f
        _, one_lane = compile_sformula(f)
        for t, env in enumerate(envs):
            lane = sum((m >> t + lanes * v & 1) << v for v in range(n ** len(fv)))
            assert lane == one_lane(env, n), (trial, f)


def test_evaluation_does_not_mutate_env():
    sp = abstract_space(2)
    env = {"P": PredSet.full(2)}
    before = dict(env)
    eval_sformula(Quant("forall", "x", PredApp("P", "x")), env, sp)
    assert env == before


def triple_bindings():
    """(space, P, S, Q): every binding at sizes 1 and 2, then 300 random
    ones at each of sizes 3 to 5."""
    for size in (1, 2):
        sp = abstract_space(size)
        sets = [PredSet(size, m) for m in range(2**size)]
        rels = [
            Relation(sp, tuple(code >> (size * i) & (2**size - 1) for i in range(size)))
            for code in range(2 ** (size * size))
        ]
        for p, s, q in itertools.product(sets, rels, sets):
            yield sp, p, s, q
    rng = random.Random(0x7E57)
    for size in (3, 4, 5):
        sp = abstract_space(size)
        for _ in range(300):
            p, q = (random_predset(sp, rng.getrandbits(64)) for _ in "PQ")
            yield sp, p, random_relation(sp, rng.getrandbits(64)), q


class TestTriplesAreSFormulas:
    """The paper's thesis: a correctness triple is an S-formula, and so is wp."""

    def test_ht_total_is_check_total(self):
        f = ht_total("P", "S", "Q")
        for sp, p, s, q in triple_bindings():
            assert eval_sformula(f, {"P": p, "S": s, "Q": q}, sp) == check_total(p, s, q).holds

    def test_ht_partial_is_check_partial(self):
        f = ht_partial("P", "S", "Q")
        for sp, p, s, q in triple_bindings():
            assert eval_sformula(f, {"P": p, "S": s, "Q": q}, sp) == check_partial(p, s, q).holds

    def test_wp_formula_is_wp(self):
        fv, run = compile_sformula(wp_formula("S", "Q"))
        assert fv == ("x",)
        for sp, _, s, q in triple_bindings():
            assert run({"S": s, "Q": q}, sp.size) == wp(s, q).mask
