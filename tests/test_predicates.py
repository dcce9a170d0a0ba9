import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalc.errors import UnknownVariableError
from scalc.predicates import (
    INT64_MAX,
    UNDEFINED,
    Add,
    And,
    BoolConst,
    Cmp,
    Const,
    Iff,
    Implies,
    InDomain,
    Mul,
    Neg,
    Not,
    Or,
    PredSet,
    Sub,
    Var,
    eval_arith,
    eval_pred,
    pred_to_set,
)
from scalc.state_space import (
    Domain,
    VarUniverse,
    build_space,
    index_to_state,
    int_range_domain,
)


def inf_space():
    """The three-variable space used by the loop example."""
    return build_space(
        VarUniverse(
            (
                ("i", int_range_domain("i", 0, 7)),
                ("n", int_range_domain("n", 0, 7)),
                ("f", int_range_domain("f", 0, 31)),
            )
        )
    )


def state_of(space, **values):
    s = index_to_state(space, 0)
    for name, v in values.items():
        s = s.updated(name, v)
    return s


class TestEvalArith:
    def test_multiplication_step(self):
        s = state_of(inf_space(), i=2, n=4, f=1)
        assert eval_arith(Mul(Var("f"), Var("i")), s) == 2

    def test_variable_lookup(self):
        sp = build_space(VarUniverse((("a", Domain("a", (5,))),)))
        assert eval_arith(Var("a"), index_to_state(sp, 0)) == 5

    def test_overflow_is_undefined(self):
        sp = build_space(VarUniverse((("x", Domain("x", (INT64_MAX,))),)))
        s = index_to_state(sp, 0)
        assert eval_arith(Add(Var("x"), Const(1)), s) is UNDEFINED

    def test_undefined_propagates(self):
        sp = build_space(VarUniverse((("x", Domain("x", (INT64_MAX,))),)))
        s = index_to_state(sp, 0)
        e = Sub(Mul(Add(Var("x"), Const(1)), Const(0)), Const(3))
        assert eval_arith(e, s) is UNDEFINED

    def test_neg_and_sub(self):
        s = state_of(inf_space(), i=3)
        assert eval_arith(Neg(Var("i")), s) == -3
        assert eval_arith(Sub(Const(10), Var("i")), s) == 7

    def test_unknown_variable(self):
        s = state_of(inf_space())
        with pytest.raises(UnknownVariableError):
            eval_arith(Var("zz"), s)


class TestEvalPred:
    def test_postcondition_hit(self):
        sp = build_space(VarUniverse((("a", Domain("a", (5, 10))),)))
        s = index_to_state(sp, 1)
        assert eval_pred(Cmp("==", Var("a"), Const(10)), s) is True

    def test_true_const_everywhere(self):
        sp = inf_space()
        for k in (0, 100, sp.size - 1):
            assert eval_pred(BoolConst(True), index_to_state(sp, k)) is True

    def test_loop_exit_state(self):
        s = state_of(inf_space(), i=5, n=4, f=24)
        assert eval_pred(Cmp("<=", Var("i"), Var("n")), s) is False

    def test_connectives(self):
        s = state_of(inf_space(), i=2, n=4)
        le = Cmp("<=", Var("i"), Var("n"))
        eq = Cmp("==", Var("i"), Const(2))
        assert eval_pred(And(le, eq), s)
        assert eval_pred(Or(Not(le), eq), s)
        assert eval_pred(Implies(eq, le), s)
        assert eval_pred(Iff(le, eq), s)
        assert not eval_pred(Iff(le, Not(eq)), s)

    def test_comparison_on_undefined_is_false(self):
        sp = build_space(VarUniverse((("x", Domain("x", (INT64_MAX,))),)))
        s = index_to_state(sp, 0)
        bump = Add(Var("x"), Const(1))
        assert eval_pred(Cmp(">", bump, Const(0)), s) is False
        # even reflexively: an undefined value compares false to itself
        assert eval_pred(Cmp("==", bump, bump), s) is False

    def test_in_domain_is_true_on_product_states(self):
        sp = inf_space()
        for k in (0, 17, sp.size - 1):
            assert eval_pred(InDomain("f"), index_to_state(sp, k)) is True

    def test_cmp_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Cmp("===", Var("a"), Const(0))


class TestPredToSet:
    def test_false_is_empty(self):
        sp = inf_space()
        assert pred_to_set(BoolConst(False), sp).is_empty()

    def test_true_is_full(self):
        sp = build_space(VarUniverse((("a", Domain("a", (1, 2, 3))),)))
        s = pred_to_set(BoolConst(True), sp)
        assert s.is_full()
        assert s.count() == 3

    def test_enumerated_comparison(self):
        sp = build_space(VarUniverse((("a", Domain("a", (-1, 0, 5))),)))
        s = pred_to_set(Cmp(">", Var("a"), Const(0)), sp)
        assert list(s.indices()) == [2]
        assert index_to_state(sp, 2).as_dict() == {"a": 5}


def random_pred(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return BoolConst(rng.random() < 0.5)
        left = Var(rng.choice(vars_))
        right = Const(rng.randrange(-4, 12)) if kind == 1 else Var(rng.choice(vars_))
        op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
        return Cmp(op, left, right)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_pred(rng, vars_, depth - 1))
    ctor = (And, Or, Implies, Iff)[kind - 1]
    return ctor(random_pred(rng, vars_, depth - 1), random_pred(rng, vars_, depth - 1))


class TestSetLevelAlgebra:
    def test_de_morgan_over_random_predicates(self):
        sp = build_space(
            VarUniverse(
                (("a", int_range_domain("a", 0, 4)), ("b", int_range_domain("b", -2, 2)))
            )
        )
        rng = random.Random(1234)
        for _ in range(100):
            p = random_pred(rng, ("a", "b"), 3)
            q = random_pred(rng, ("a", "b"), 3)
            lhs = pred_to_set(Not(And(p, q)), sp)
            rhs = ~(pred_to_set(p, sp) & pred_to_set(q, sp))
            assert lhs == rhs

    def test_pointwise_agreement(self):
        sp = build_space(VarUniverse((("a", int_range_domain("a", -3, 3)),)))
        rng = random.Random(99)
        for _ in range(50):
            p = random_pred(rng, ("a",), 4)
            bits = pred_to_set(p, sp)
            for k in range(sp.size):
                assert (k in bits) == eval_pred(p, index_to_state(sp, k))


class TestPredSet:
    def test_constructors(self):
        assert PredSet.empty(5).count() == 0
        assert PredSet.full(5).count() == 5
        s = PredSet.from_indices(6, (1, 4, 4))
        assert list(s.indices()) == [1, 4]

    def test_mask_must_fit(self):
        with pytest.raises(ValueError):
            PredSet(2, 0b100)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            PredSet.full(3) & PredSet.full(4)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_boolean_algebra(self, size, data):
        a = PredSet(size, data.draw(st.integers(0, 2**size - 1)))
        b = PredSet(size, data.draw(st.integers(0, 2**size - 1)))
        assert (a & b) == (b & a)
        assert (a | b) == (b | a)
        assert ~(a & b) == (~a | ~b)
        assert (a - b) == (a & ~b)
        assert (a & b).subset_of(a)
        assert a.subset_of(a | b)
        assert (a & ~a).is_empty()
        assert (a | ~a).is_full()
        assert a.count() + (~a).count() == size

    def test_indices_ascending(self):
        s = PredSet(8, 0b10110010)
        assert list(s.indices()) == [1, 4, 5, 7]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.data())
    def test_indices_are_the_members_in_order(self, size, data):
        s = PredSet(size, data.draw(st.integers(0, 2**size - 1)))
        assert list(s.indices()) == [i for i in range(size) if i in s]
