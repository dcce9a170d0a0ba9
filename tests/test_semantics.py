import functools
import random
import tracemalloc

import pytest

from scalc import semantics
from scalc.errors import SpaceMismatchError
from scalc.hoare import check_total, program_wp
from scalc.predicates import (
    UNDEFINED,
    Arith,
    BoolConst,
    Cmp,
    Conn,
    Const,
    Not,
    PredSet,
    Var,
    compile_pred,
    pred_to_set,
)
from scalc.semantics import (
    Relation,
    denote,
    empty_relation,
    full_relation,
    identity_relation,
    relation_from_pairs,
)
from scalc.state_space import (
    Domain,
    VarUniverse,
    build_space,
    index_to_state,
    state_to_index,
)
from scalc.syntax import (
    Assign,
    Decl,
    IfThenElse,
    Nop,
    Seq,
    Stmt,
    While,
    parse_pred,
    parse_program,
)

from test_predicates import eval_arith, pointwise_pred_to_set

# ---------------------------------------------------------------------------
# The oracle: scalc's semantics before `denote` became a tabulation of
# `successors`.  Each statement's whole relation is built from its parts'
# relations, and a loop is a Kleene iteration over every guard state.


def _require_same_space(a: Relation, b: Relation):
    if a.space != b.space:
        raise SpaceMismatchError("relations are over different state spaces")


def relational_assign(var, expr, space):
    dom = space.universe.vars[space.universe.position(var)][1]
    succ = []
    for i in range(space.size):
        state = index_to_state(space, i)
        value = eval_arith(expr, state)
        if value is UNDEFINED or not dom.low <= value <= dom.high:
            succ.append(0)
        else:
            succ.append(1 << state_to_index(space, state.updated(var, value)))
    return Relation(space, tuple(succ))


def relational_decl(var, space):
    dom = space.universe.vars[space.universe.position(var)][1]
    succ = []
    for i in range(space.size):
        state = index_to_state(space, i)
        mask = 0
        for value in range(dom.low, dom.high + 1):
            mask |= 1 << state_to_index(space, state.updated(var, value))
        succ.append(mask)
    return Relation(space, tuple(succ))


def relational_seq(r1, r2):
    """Relational composition: first r1, then r2."""
    _require_same_space(r1, r2)
    succ = []
    for m in r1.succ:
        out = 0
        while m:
            low = m & -m
            out |= r2.succ[low.bit_length() - 1]
            m ^= low
        succ.append(out)
    return Relation(r1.space, tuple(succ))


def relational_ite(b, r1, r2):
    _require_same_space(r1, r2)
    succ = list(r2.succ)
    for i in pointwise_pred_to_set(b, r1.space).indices():
        succ[i] = r1.succ[i]
    return Relation(r1.space, tuple(succ))


def relational_if(b, r):
    succ = [1 << i for i in range(r.space.size)]
    for i in pointwise_pred_to_set(b, r.space).indices():
        succ[i] = r.succ[i]
    return Relation(r.space, tuple(succ))


def relational_while(b, body):
    """Least fixpoint of the guarded chain construction: succ[i] starts as
    {i} where the guard is false and grows by one body step per pass; a
    pass that changes nothing means every finite exit chain is counted."""
    space = body.space
    heads = list(pointwise_pred_to_set(b, space).indices())
    succ = [1 << i for i in range(space.size)]
    for i in heads:
        succ[i] = 0
    changed = True
    while changed:
        changed = False
        for i in heads:
            m = body.succ[i]
            out = 0
            while m:
                low = m & -m
                out |= succ[low.bit_length() - 1]
                m ^= low
            if out | succ[i] != succ[i]:
                succ[i] |= out
                changed = True
    return Relation(space, tuple(succ))


def relational_denote(stmt: Stmt, space) -> Relation:
    if isinstance(stmt, Nop):
        return identity_relation(space)
    if isinstance(stmt, Decl):
        return relational_decl(stmt.var, space)
    if isinstance(stmt, Assign):
        return relational_assign(stmt.var, stmt.expr, space)
    if isinstance(stmt, Seq):
        return functools.reduce(relational_seq, (relational_denote(part, space) for part in stmt.parts))
    if isinstance(stmt, IfThenElse):
        return relational_ite(
            stmt.cond,
            relational_denote(stmt.then_branch, space),
            relational_denote(stmt.else_branch, space),
        )
    if isinstance(stmt, While):
        return relational_while(stmt.cond, relational_denote(stmt.body, space))
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------


def relation_stmt(relation: Relation) -> Stmt:
    """A statement that denotes `relation`, over a space of one variable v.

    Row i becomes `if (v == vi) { int v; if (!(v == vj1 || ...)) v = out; }`
    with the rows chained through the else arms: havoc, then an assignment
    outside the domain, which is stuck, from every value not in the row.
    An empty row is `!false`, so every value is stuck.
    """
    ((var, dom),) = relation.space.universe.vars
    outside = Const(dom.high + 1)
    out: Stmt = Nop()
    for i in reversed(range(dom.size)):
        arms = [Cmp("==", Var(var), Const(dom.low + j)) for j in range(dom.size) if relation.has_pair(i, j)]
        row = arms[0] if arms else BoolConst(False)
        for arm in arms[1:]:
            row = Conn("||", row, arm)
        body = Seq((Decl(var, "int"), IfThenElse(Not(row), Assign(var, outside), Nop())))
        out = IfThenElse(Cmp("==", Var(var), Const(dom.low + i)), body, out)
    return out


def space_a3():
    return build_space(VarUniverse((("a", Domain("a", 5, 7)),)))


def loop_space():
    return build_space(
        VarUniverse(
            (
                ("i", Domain("i", 0, 7)),
                ("n", Domain("n", 0, 7)),
                ("f", Domain("f", 0, 31)),
            )
        )
    )


def full_set(space):
    return PredSet.full(space.size)


def singleton(space, **values):
    s = index_to_state(space, 0)
    for k, v in values.items():
        s = s.updated(k, v)
    return PredSet.from_indices(space.size, (state_to_index(space, s),))


def random_rel(space, rng):
    return Relation(
        space, tuple(rng.getrandbits(space.size) for _ in range(space.size))
    )


def test_relation_stmt_denotes_its_relation():
    rng = random.Random(4)
    for space in (space_a3(), build_space(VarUniverse((("a", Domain("a", 0, 5)),)))):
        for _ in range(30):
            r = random_rel(space, rng)
            assert denote(relation_stmt(r), space) == r
            assert relational_denote(relation_stmt(r), space) == r


class TestNop:
    def test_identity_pairs(self):
        sp = space_a3()
        assert list(denote(Nop(), sp).pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_preserves_everything(self):
        sp = space_a3()
        v = check_total(full_set(sp), denote(Nop(), sp), full_set(sp))
        assert v.holds

    def test_identity_pair_fails_changed_postcondition(self):
        sp = space_a3()
        p = singleton(sp, a=5)
        q = singleton(sp, a=7)
        v = check_total(p, denote(Nop(), sp), q)
        assert not v.holds
        assert v.counterexample.initial.as_dict() == {"a": 5}


class TestAssign:
    def test_constant_assignment_targets_one_state(self):
        sp = space_a3()
        r = denote(Assign("a", Const(5)), sp)
        target = state_to_index(sp, index_to_state(sp, 0).updated("a", 5))
        assert list(r.pairs()) == [(i, target) for i in range(3)]

    def test_factorial_step(self):
        sp = loop_space()
        r = denote(Assign("f", Arith("*", Var("f"), Var("i"))), sp)
        start = singleton(sp, i=2, n=4, f=1)
        (i0,) = start.indices()
        (j,) = (j for _, j in r.pairs() if _ == i0)
        assert index_to_state(sp, j).as_dict() == {"i": 2, "n": 4, "f": 2}

    def test_out_of_domain_result_has_no_successor(self):
        sp = build_space(VarUniverse((("i", Domain("i", 0, 7)),)))
        r = denote(Assign("i", Arith("+", Var("i"), Const(1))), sp)
        assert r.succ[7] == 0
        assert r.succ[3] == 1 << 4

    def test_overflow_has_no_successor(self):
        sp = build_space(VarUniverse((("i", Domain("i", -2, 2)),)))
        r = denote(Assign("i", Arith("*", Var("i"), Const(1 << 62))), sp)
        # i * 2^62 overflows 64 bits at i == 2 and leaves the domain at every
        # other value but 0
        assert [i for i in range(sp.size) if r.succ[i]] == [2]
        assert r.succ[2] == 1 << 2

    def test_frame_condition(self):
        sp = loop_space()
        r = denote(Assign("i", Const(0)), sp)
        for i, j in r.pairs():
            before = index_to_state(sp, i).as_dict()
            after = index_to_state(sp, j).as_dict()
            assert after["i"] == 0
            assert after["n"] == before["n"]
            assert after["f"] == before["f"]


class TestDecl:
    def test_havoc_fan_out(self):
        sp = space_a3()
        r = denote(Decl("a", "int"), sp)
        for i in range(sp.size):
            assert bin(r.succ[i]).count("1") == 3

    def test_establishes_domain_membership(self):
        sp = space_a3()
        v = check_total(full_set(sp), denote(Decl("a", "int"), sp), pred_to_set(BoolConst(True), sp))
        assert v.holds

    def test_cannot_establish_specific_value(self):
        sp = space_a3()
        q = singleton(sp, a=5)
        v = check_total(full_set(sp), denote(Decl("a", "int"), sp), q)
        assert not v.holds
        assert v.counterexample.kind == "BadSuccessor"

    def test_frame_condition(self):
        sp = loop_space()
        r = denote(Decl("i", "int"), sp)
        for i, j in r.pairs():
            before = index_to_state(sp, i).as_dict()
            after = index_to_state(sp, j).as_dict()
            assert after["n"] == before["n"]
            assert after["f"] == before["f"]


class TestIfForms:
    def test_branch_from_known_state(self):
        sp = space_a3()
        r = denote(
            IfThenElse(
                Cmp(">", Var("a"), Const(0)),
                Assign("a", Const(7)),
                Assign("a", Const(100)),
            ),
            sp,
        )
        (i5,) = singleton(sp, a=5).indices()
        (j,) = (j for i, j in r.pairs() if i == i5)
        assert index_to_state(sp, j).as_dict() == {"a": 7}

    def test_true_guard_selects_then(self):
        sp = space_a3()
        rng = random.Random(5)
        r1, r2 = random_rel(sp, rng), random_rel(sp, rng)
        assert denote(IfThenElse(BoolConst(True), relation_stmt(r1), relation_stmt(r2)), sp) == r1

    def test_false_guard_selects_else(self):
        sp = space_a3()
        rng = random.Random(6)
        r1, r2 = random_rel(sp, rng), random_rel(sp, rng)
        assert denote(IfThenElse(BoolConst(False), relation_stmt(r1), relation_stmt(r2)), sp) == r2

    def test_if_reduces_to_ite_with_nop(self):
        sp = build_space(VarUniverse((("a", Domain("a", 0, 3)),)))
        rng = random.Random(7)
        for _ in range(50):
            r = random_rel(sp, rng)
            b = Cmp(rng.choice(("<", ">=", "==")), Var("a"), Const(rng.randrange(4)))
            assert relational_if(b, r) == relational_ite(b, r, identity_relation(sp))
            body = relation_stmt(r)
            assert denote(IfThenElse(b, body, Nop()), sp) == relational_if(b, r)

    def test_if_false_guard_is_identity(self):
        sp = space_a3()
        rng = random.Random(8)
        body = relation_stmt(random_rel(sp, rng))
        assert denote(IfThenElse(BoolConst(False), body, Nop()), sp) == identity_relation(sp)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            relational_seq(identity_relation(space_a3()), identity_relation(loop_space()))


class TestSeq:
    def test_nop_identities(self):
        sp = space_a3()
        rng = random.Random(9)
        r = random_rel(sp, rng)
        nop = relational_denote(Nop(), sp)
        assert relational_seq(nop, r) == r
        assert relational_seq(r, nop) == r

    def test_associative(self):
        sp = build_space(VarUniverse((("a", Domain("a", 0, 4)),)))
        rng = random.Random(10)
        for _ in range(50):
            r1, r2, r3 = (random_rel(sp, rng) for _ in range(3))
            assert relational_seq(relational_seq(r1, r2), r3) == relational_seq(r1, relational_seq(r2, r3))

    def test_composition_follows_pairs(self):
        sp = space_a3()
        r1 = relation_from_pairs(sp, [(0, 1), (0, 2)])
        r2 = relation_from_pairs(sp, [(1, 0), (2, 2)])
        r = denote(Seq((relation_stmt(r1), relation_stmt(r2))), sp)
        assert list(r.pairs()) == [(0, 0), (0, 2)]


class TestWhile:
    def test_false_guard_is_identity(self):
        sp = space_a3()
        rng = random.Random(11)
        body = relation_stmt(random_rel(sp, rng))
        assert denote(While(BoolConst(False), body), sp) == identity_relation(sp)

    def test_factorial_loop_unique_outcome(self):
        sp = loop_space()
        w = denote(
            parse_program("while (i <= n) { f = f*i; i = i+1; }", predeclared=("i", "n", "f")), sp
        )
        (start,) = singleton(sp, i=2, n=4, f=1).indices()
        finals = [j for i, j in w.pairs() if i == start]
        assert [index_to_state(sp, j).as_dict() for j in finals] == [
            {"i": 5, "n": 4, "f": 24}
        ]

    def test_intermediate_states_match_hand_trace(self):
        sp = loop_space()
        body = denote(
            parse_program("f = f*i; i = i+1;", predeclared=("i", "n", "f")), sp
        )
        expected = [
            ({"i": 2, "n": 4, "f": 1}, {"i": 3, "n": 4, "f": 2}),
            ({"i": 3, "n": 4, "f": 2}, {"i": 4, "n": 4, "f": 6}),
            ({"i": 4, "n": 4, "f": 6}, {"i": 5, "n": 4, "f": 24}),
        ]
        for before, after in expected:
            (i,) = singleton(sp, **before).indices()
            (j,) = singleton(sp, **after).indices()
            assert body.succ[i] == 1 << j

    def test_divergent_loop_has_no_successor(self):
        sp = build_space(VarUniverse((("i", Domain("i", 0, 7)),)))
        w = denote(parse_program("while (i >= 0) i = i + 1;", predeclared=("i",)), sp)
        assert w.pair_count() == 0

    def test_loop_without_exit_diverges(self):
        sp = build_space(VarUniverse((("i", Domain("i", 0, 7)),)))
        w = denote(parse_program("while (i != 3) { if (i < 3) i = i + 1; else i = 7; }", predeclared=("i",)), sp)
        # 0..2 count up to the exit at 3; 4..7 reach 7 and stay there forever
        assert list(w.pairs()) == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_exit_states_falsify_guard(self):
        sp = build_space(VarUniverse((("a", Domain("a", 0, 5)),)))
        rng = random.Random(12)
        b = parse_pred("a < 3", declared=("a",))
        guard = pred_to_set(b, sp)
        for _ in range(30):
            w = denote(While(b, relation_stmt(random_rel(sp, rng))), sp)
            for _, j in w.pairs():
                assert j not in guard

    def test_guard_false_states_map_to_themselves(self):
        sp = build_space(VarUniverse((("a", Domain("a", 0, 5)),)))
        rng = random.Random(13)
        b = parse_pred("a < 3", declared=("a",))
        guard = pred_to_set(b, sp)
        for _ in range(30):
            w = denote(While(b, relation_stmt(random_rel(sp, rng))), sp)
            for i in range(sp.size):
                if i not in guard:
                    assert w.succ[i] == 1 << i

    def test_one_step_unrolling_fixpoint(self):
        sp = build_space(VarUniverse((("a", Domain("a", 0, 4)),)))
        rng = random.Random(14)
        for _ in range(60):
            b = Cmp(rng.choice(("<", "<=", "==", "!=")), Var("a"), Const(rng.randrange(5)))
            body = relation_stmt(random_rel(sp, rng))
            loop = While(b, body)
            assert denote(loop, sp) == denote(IfThenElse(b, Seq((body, loop)), Nop()), sp)


class TestDenoteDispatch:
    def test_branching_program_all_roads_lead_to_ten(self):
        sp = build_space(VarUniverse((("a", Domain("a", 0, 15)),)))
        r = denote(parse_program("int a=5; if (a > 0) a=10; else a=100;"), sp)
        # a=100 is outside this narrowed domain, but that branch is dead
        target = state_to_index(sp, index_to_state(sp, 0).updated("a", 10))
        for i in range(sp.size):
            assert r.succ[i] == 1 << target

    def test_nop_program(self):
        sp = space_a3()
        assert denote(parse_program(";"), sp) == identity_relation(sp)

    def test_deterministic_without_decl(self):
        sp = build_space(
            VarUniverse(
                (("a", Domain("a", 0, 3)), ("b", Domain("b", 0, 3)))
            )
        )
        progs = [
            "a = a + b; b = a - b;",
            "if (a < b) a = b; else b = a;",
            "a = 2; if (b == a) b = 0;",
        ]
        for text in progs:
            r = denote(parse_program(text, predeclared=("a", "b")), sp)
            for i in range(sp.size):
                assert bin(r.succ[i]).count("1") <= 1


class TestRelationBasics:
    def test_pairs_sorted(self):
        sp = space_a3()
        r = relation_from_pairs(sp, [(2, 1), (0, 2), (2, 0), (0, 1)])
        assert list(r.pairs()) == [(0, 1), (0, 2), (2, 0), (2, 1)]

    def test_counts_and_domain(self):
        sp = space_a3()
        r = relation_from_pairs(sp, [(0, 1), (2, 2)])
        assert r.pair_count() == 2
        assert r.has_pair(0, 1)
        assert not r.has_pair(1, 1)

    def test_constructors(self):
        sp = space_a3()
        assert empty_relation(sp).pair_count() == 0
        assert full_relation(sp).pair_count() == 9
        assert identity_relation(sp).pair_count() == 3


# ---------------------------------------------------------------------------
# What `successors` keeps between calls: one entry per base after a
# declaration and 8 bytes a state per loop, never a dict entry per state.

# one spec shaped like each benchmark family (bench/workloads.py), at
# 32 768 states (havoc at 32 736): variables, program, postcondition
FAMILY_SPECS = {
    "count": (
        (("i", 0, 7), ("n", 0, 7), ("f", 0, 511)),
        "while (i <= n) { f = f * i; i = i + 1; } if (f > 12) f = f - 8;",
        "f <= 100",
    ),
    "branch": (
        (("a", 0, 7), ("b", 0, 7), ("c", 0, 7), ("m", 0, 63)),
        "if (a < b) { if (b <= c) m = a + b; else m = c - a; }"
        " else { if (a > c) m = b * 2; else m = a + c + 3; }"
        " if (m > 4) m = m - a;",
        "m <= 30",
    ),
    "havoc": (
        (("x", 0, 15), ("y", 0, 340), ("t", 0, 5)),
        "int t; if (t < x) y = y + t; else y = y - 2; while (t > 0) { y = y + 1; t = t - 1; }",
        "y <= 100",
    ),
    "diverge": (
        (("i", 0, 15), ("t", 0, 15), ("z", 0, 127)),
        "while (i != t) { i = i + 6; if (i > 15) i = i - 16; } if (z > 0) z = z - 1; else z = z + 2;",
        "i <= 7",
    ),
}
BYTES_A_STATE = 96


def int_space(variables):
    return build_space(VarUniverse(tuple((name, Domain(name, lo, hi)) for name, lo, hi in variables)))


def family_task(family):
    variables, program, post = FAMILY_SPECS[family]
    names = tuple(name for name, _, _ in variables)
    return parse_program(program, predeclared=names), parse_pred(post, declared=names), int_space(variables)


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_whole_space_wp_keeps_no_table_entry_per_state(family):
    program, post, space = family_task(family)
    assert space.size >= 32736
    tracemalloc.start()
    try:
        program_wp(program, post, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_A_STATE * space.size, f"{peak / space.size:.1f} bytes a state"


def test_the_branch_after_a_declaration_runs_once_a_state(monkeypatch):
    # every state of a base reaches the same states after `int t;`, so the
    # branch that follows runs once for each of them, not once per initial
    # state and value of t
    program, _, _ = family_task("havoc")
    space = int_space((("x", 0, 15), ("y", 0, 20), ("t", 0, 5)))
    branch = program.parts[1]
    assert isinstance(branch, IfThenElse)
    calls = []

    def counting(pred, sp):
        holds = compile_pred(pred, sp)
        if pred is not branch.cond:
            return holds
        return lambda i: calls.append(i) or holds(i)

    monkeypatch.setattr(semantics, "compile_pred", counting)
    assert denote(program, space) == relational_denote(program, space)
    assert len(calls) == space.size
