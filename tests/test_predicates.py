import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalc import predicates
from scalc.errors import UnknownVariableError
from scalc.formulas import PredApp, Quant
from scalc.hoare import verify
from scalc.predicates import (
    CMP_LEVEL,
    INT64_MAX,
    INT64_MIN,
    OPERATORS,
    UNDEFINED,
    Arith,
    ArithExpr,
    BoolConst,
    Cmp,
    Conn,
    Const,
    Neg,
    Not,
    PredExpr,
    PredSet,
    Var,
    compile_arith,
    compile_pred,
    operator_of,
    pred_to_set,
)
from scalc.state_space import (
    Domain,
    State,
    VarUniverse,
    build_space,
    index_to_state,
    int_range_domain,
)
from scalc.syntax import parse_pred, parse_program


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


# ---------------------------------------------------------------------------
# The oracle: scalc's evaluators before expressions were compiled to
# functions of the state index.  They walk the expression tree over a
# `State`, looking each variable up by name.


def _clamp64(v):
    return v if INT64_MIN <= v <= INT64_MAX else UNDEFINED


def eval_arith(e, state: State):
    """Exact 64-bit evaluation; UNDEFINED is absorbing."""
    if isinstance(e, Const):
        return _clamp64(e.value)
    if isinstance(e, Var):
        return state.value_of(e.name)
    if isinstance(e, Neg):
        v = eval_arith(e.operand, state)
        return UNDEFINED if v is UNDEFINED else _clamp64(-v)
    if isinstance(e, Arith):
        a = eval_arith(e.left, state)
        b = eval_arith(e.right, state)
        if a is UNDEFINED or b is UNDEFINED:
            return UNDEFINED
        if e.op == "+":
            return _clamp64(a + b)
        if e.op == "-":
            return _clamp64(a - b)
        if e.op == "*":
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


def eval_pred(p, state: State) -> bool:
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
    if isinstance(p, Conn) and p.op == "&&":
        return eval_pred(p.left, state) and eval_pred(p.right, state)
    if isinstance(p, Conn) and p.op == "||":
        return eval_pred(p.left, state) or eval_pred(p.right, state)
    if isinstance(p, Conn) and p.op == "->":
        return (not eval_pred(p.left, state)) or eval_pred(p.right, state)
    if isinstance(p, Conn) and p.op == "<->":
        return eval_pred(p.left, state) == eval_pred(p.right, state)
    raise TypeError(f"not a predicate expression: {p!r}")


def pointwise_pred_to_set(p, space):
    """The reference for `pred_to_set`: evaluate p on every state."""
    mask = 0
    for i in range(space.size):
        if eval_pred(p, index_to_state(space, i)):
            mask |= 1 << i
    return PredSet(space.size, mask)


def nodes(e):
    """e and every predicate or arithmetic node below it."""
    yield e
    for child in vars(e).values():
        if isinstance(child, (ArithExpr, PredExpr)):
            yield from nodes(child)


def kind_of(node):
    """A binary operator node's token, any other node's class."""
    return node.op if isinstance(node, (Arith, Conn)) else type(node)


class TestEvalArith:
    def test_multiplication_step(self):
        s = state_of(inf_space(), i=2, n=4, f=1)
        assert eval_arith(Arith("*", Var("f"), Var("i")), s) == 2

    def test_variable_lookup(self):
        sp = build_space(VarUniverse((("a", Domain("a", (5,))),)))
        assert eval_arith(Var("a"), index_to_state(sp, 0)) == 5

    def test_overflow_is_undefined(self):
        sp = build_space(VarUniverse((("x", Domain("x", (INT64_MAX,))),)))
        s = index_to_state(sp, 0)
        assert eval_arith(Arith("+", Var("x"), Const(1)), s) is UNDEFINED

    def test_undefined_propagates(self):
        sp = build_space(VarUniverse((("x", Domain("x", (INT64_MAX,))),)))
        s = index_to_state(sp, 0)
        e = Arith("-", Arith("*", Arith("+", Var("x"), Const(1)), Const(0)), Const(3))
        assert eval_arith(e, s) is UNDEFINED

    def test_neg_and_sub(self):
        s = state_of(inf_space(), i=3)
        assert eval_arith(Neg(Var("i")), s) == -3
        assert eval_arith(Arith("-", Const(10), Var("i")), s) == 7

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
        assert eval_pred(Conn("&&", le, eq), s)
        assert eval_pred(Conn("||", Not(le), eq), s)
        assert eval_pred(Conn("->", eq, le), s)
        assert eval_pred(Conn("<->", le, eq), s)
        assert not eval_pred(Conn("<->", le, Not(eq)), s)

    def test_comparison_on_undefined_is_false(self):
        sp = build_space(VarUniverse((("x", Domain("x", (INT64_MAX,))),)))
        s = index_to_state(sp, 0)
        bump = Arith("+", Var("x"), Const(1))
        assert eval_pred(Cmp(">", bump, Const(0)), s) is False
        # even reflexively: an undefined value compares false to itself
        assert eval_pred(Cmp("==", bump, bump), s) is False


class TestOperatorTokens:
    x, p, t, f = Var("x"), PredApp("P", "x"), BoolConst(True), BoolConst(False)

    @pytest.mark.parametrize(
        "node, token, operands",
        [
            pytest.param(Cmp, "===", (x, x), id="Cmp-==="),
            pytest.param(Cmp, "->", (x, x), id="Cmp-->"),
            pytest.param(Arith, "/", (x, x), id="Arith-/"),
            pytest.param(Arith, "&&", (x, x), id="Arith-&&"),
            pytest.param(Conn, "and", (t, f), id="Conn-and"),
            pytest.param(Conn, "+", (t, f), id="Conn-+"),
            pytest.param(Conn, "and", (p, p), id="Conn-and-over-formulas"),
            pytest.param(Conn, "==", (p, p), id="Conn-==-over-formulas"),
            pytest.param(Quant, "all", ("x", p), id="Quant-all"),
            pytest.param(Quant, "&&", ("x", p), id="Quant-&&"),
        ],
    )
    def test_a_node_refuses_a_token_not_its_own(self, node, token, operands):
        # an unchecked token would compile as some other operator
        with pytest.raises(ValueError):
            node(token, *operands)

    def test_operator_of_returns_the_entry_that_built_the_node(self):
        for entry in OPERATORS:
            a, b = (BoolConst(True), BoolConst(False)) if entry.level < CMP_LEVEL else (Const(1), Const(2))
            node = entry.node(a) if entry.grouping == "prefix" else entry.node(entry.token, a, b)
            assert operator_of(node) is entry, entry


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
    op = ("&&", "||", "->", "<->")[kind - 1]
    return Conn(op, random_pred(rng, vars_, depth - 1), random_pred(rng, vars_, depth - 1))


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
            lhs = pred_to_set(Not(Conn("&&", p, q)), sp)
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


CMP_OPS = tuple(op.token for op in OPERATORS if op.node is Cmp)

# values at and next to both ends of the 64-bit range, so that sums,
# differences, products and negations of them leave it (UNDEFINED)
EDGE_VALUES = (INT64_MIN, INT64_MIN + 1, -2, -1, 0, 1, 3, INT64_MAX - 1, INT64_MAX)


def random_universe(rng):
    names = rng.sample(("a", "b", "c", "d"), rng.randrange(5))
    return VarUniverse(
        tuple((n, Domain(n, tuple(sorted(rng.sample(EDGE_VALUES, rng.randint(1, 3)))))) for n in names)
    )


def random_arith(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        if names and rng.random() < 0.6:
            return Var(rng.choice(names))
        return Const(rng.choice(EDGE_VALUES))
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(random_arith(rng, names, depth - 1))
    op = ("+", "-", "*")[kind - 1]
    return Arith(op, random_arith(rng, names, depth - 1), random_arith(rng, names, depth - 1))


def random_full_pred(rng, names, depth):
    """Every connective and BoolConst over arithmetic atoms;
    `names` may hold a variable that is not in the universe."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.15:
            return BoolConst(rng.random() < 0.5)
        return Cmp(rng.choice(CMP_OPS), random_arith(rng, names, 2), random_arith(rng, names, 2))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_full_pred(rng, names, depth - 1))
    op = ("&&", "||", "->", "<->")[kind - 1]
    return Conn(op, random_full_pred(rng, names, depth - 1), random_full_pred(rng, names, depth - 1))


def outcome(to_set, p, space):
    try:
        return to_set(p, space)
    except UnknownVariableError:
        return "unknown variable"


def has_undefined_operand(p, space):
    return any(
        eval_arith(side, index_to_state(space, i)) is UNDEFINED
        for node in nodes(p)
        if isinstance(node, Cmp)
        for side in (node.left, node.right)
        if all(n.name in space.universe for n in nodes(side) if isinstance(n, Var))
        for i in range(space.size)
    )


class TestPredToSetDifferential:
    """`pred_to_set` combines masks; the pointwise loop is the oracle."""

    def test_random_predicates_over_random_universes(self):
        rng = random.Random(0xB175)
        seen = {kind: 0 for kind in (Not, "&&", "||", "->", "<->", BoolConst, Cmp)}
        seen.update({"one-point space": 0, "undefined": 0, "raises": 0, "unknown unreached": 0})
        for trial in range(800):
            universe = random_universe(rng)
            space = build_space(universe)
            names = universe.names + (("zz",) if rng.random() < 0.3 else ())
            p = random_full_pred(rng, names, rng.randrange(1, 5))
            want = outcome(pointwise_pred_to_set, p, space)
            assert outcome(pred_to_set, p, space) == want, f"trial {trial}: {p!r} over {universe.names}"
            for kind in {kind_of(node) for node in nodes(p)} & set(seen):
                seen[kind] += 1
            seen["one-point space"] += space.size == 1
            if want == "unknown variable":
                seen["raises"] += 1
            else:
                seen["unknown unreached"] += any(isinstance(n, Var) and n.name == "zz" for n in nodes(p))
                seen["undefined"] += has_undefined_operand(p, space)
        assert min(seen.values()) >= 10, seen

    def test_an_unreached_unknown_variable_raises_nothing(self):
        sp = inf_space()
        cases = (("false && zz == 1", 0), ("true || zz == 1", sp.size), ("i > 7 && (zz == 1 <-> i == zz)", 0))
        for text, members in cases:
            p = parse_pred(text, declared=("i", "n", "f", "zz"))
            assert pred_to_set(p, sp) == pointwise_pred_to_set(p, sp)
            assert pred_to_set(p, sp).count() == members

    def test_a_reached_unknown_variable_raises_on_both_sides(self):
        sp = inf_space()
        for text in ("true && zz == 1", "i == 3 && zz == 1", "!(zz < 0)", "i < 7 -> zz == 1 || i == 0"):
            p = parse_pred(text, declared=("i", "n", "f", "zz"))
            for to_set in (pointwise_pred_to_set, pred_to_set):
                with pytest.raises(UnknownVariableError):
                    to_set(p, sp)


def evaluation(evaluate, *args):
    try:
        return evaluate(*args)
    except UnknownVariableError:
        return "unknown variable"


def contiguous(domain):
    return domain.values[-1] - domain.values[0] == domain.size - 1


class TestCompileDifferential:
    """`compile_arith` and `compile_pred` evaluate on the state index; the
    tree-walking `eval_arith` and `eval_pred` over a `State` are the oracle."""

    def test_random_expressions_over_random_universes(self):
        rng = random.Random(0xC0DE)
        kinds = (Const, Var, Neg, "+", "-", "*", BoolConst, Cmp, Not, "&&", "||", "->", "<->")
        seen = {kind: 0 for kind in kinds}
        seen.update({"64-bit edge": 0, "undefined": 0, "non-contiguous": 0, "raises": 0, "unknown unreached": 0})
        for trial in range(1000):
            universe = random_universe(rng)
            space = build_space(universe)
            # only short-circuits leave an unknown variable unread, so
            # predicates meet one more often
            names = universe.names + (("zz",) if rng.random() < 0.2 + 0.3 * (trial % 2) else ())
            if trial % 2:
                e = random_full_pred(rng, names, rng.randrange(1, 5))
                compiled, oracle = compile_pred(e, space), eval_pred
            else:
                e = random_arith(rng, names, rng.randrange(1, 5))
                compiled, oracle = compile_arith(e, space), eval_arith
            raised = undefined = False
            for i in range(space.size):
                state = index_to_state(space, i)
                want = evaluation(oracle, e, state)
                got = evaluation(compiled, i)
                assert (type(got), got) == (type(want), want), f"trial {trial}, state {i}: {e!r}"
                raised |= want == "unknown variable"
                undefined |= any(
                    evaluation(eval_arith, n, state) is UNDEFINED for n in nodes(e) if isinstance(n, ArithExpr)
                )
            below = list(nodes(e))
            read = {n.name for n in below if isinstance(n, Var)}
            domains = [universe.domain(name) for name in read if name in universe]
            for kind in {kind_of(n) for n in below} & set(seen):
                seen[kind] += 1
            seen["64-bit edge"] += any(
                isinstance(n, Const) and n.value in (INT64_MIN, INT64_MAX) for n in below
            ) or any({INT64_MIN, INT64_MAX} & set(d.values) for d in domains)
            seen["undefined"] += undefined
            seen["non-contiguous"] += any(not contiguous(d) for d in domains)
            seen["raises"] += raised
            seen["unknown unreached"] += "zz" in read and not raised
        assert min(seen.values()) >= 10, seen


@pytest.fixture
def atom_evaluations(monkeypatch):
    """Every evaluation of a predicate that `pred_to_set` compiles.  The
    guard and postcondition functions of `semantics` and `hoare` come from
    their own binding of `compile_pred` and are not recorded."""
    calls = []
    compile_pred = predicates.compile_pred

    def counting(p, space):
        holds = compile_pred(p, space)

        def evaluate(i):
            calls.append(p)
            return holds(i)

        return evaluate

    monkeypatch.setattr(predicates, "compile_pred", counting)
    return calls


def domain_product(space, atom):
    size = 1
    for name in {n.name for n in nodes(atom) if isinstance(n, Var)}:
        size *= space.universe.domain(name).size
    return size


class TestPredToSetWork:
    """Each atom is evaluated once per valuation of its own variables."""

    def test_a_box_costs_the_domains_of_its_atoms(self, atom_evaluations):
        sp = inf_space()
        pre = parse_pred("i == 2 && n == 4 && f >= 1 && f <= 3", declared=("i", "n", "f"))
        got = pred_to_set(pre, sp)
        evaluations = len(atom_evaluations)
        budget = sum(domain_product(sp, node) for node in nodes(pre) if isinstance(node, Cmp))
        assert budget == 8 + 8 + 32 + 32
        assert evaluations <= budget
        assert got == pointwise_pred_to_set(pre, sp)

    def test_narrow_verify_on_a_million_states(self, atom_evaluations):
        names = ("i", "n", "f")
        space = build_space(
            VarUniverse(
                (
                    ("i", int_range_domain("i", 0, 7)),
                    ("n", int_range_domain("n", 0, 7)),
                    ("f", int_range_domain("f", 0, 16383)),
                )
            )
        )
        assert space.size == 1 << 20
        program = parse_program("while (i <= n) { f *= i; i++; }", predeclared=names)
        pre = parse_pred("i == 2 && n == 5 && f >= 1 && f <= 3", declared=names)
        post = parse_pred("f >= 120", declared=names)  # f is 120, 240 or 360
        report = verify(program, pre, post, "total", space).to_json_dict()
        assert report["holds"] and report["counterexample"] is None
        assert report["stats"] == {"states_checked": 3, "pairs_checked": 3}
        assert len(atom_evaluations) <= 8 + 8 + 2 * 16384  # pointwise: 4 << 20
        assert set(atom_evaluations) <= set(nodes(pre))
