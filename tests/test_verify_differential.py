"""`verify` explores forward from the precondition's states only; the
relational path it replaced stays here as the oracle: denote the whole
program, then `check_total`/`check_partial` over the relation.  Both must
print the same report: verdict, counterexample and stats."""

import random
from pathlib import Path

import pytest

from scalc.hoare import Report, check_partial, check_total, verify
from scalc.predicates import BoolConst, Cmp, Const, Mul, Var, pred_to_set
from scalc.semantics import denote, successors
from scalc.specfile import load_task
from scalc.state_space import Domain, VarUniverse, build_space, int_range_domain
from scalc.syntax import Assign, Decl, Seq, Stmt, While, parse_pred, parse_program, pretty_print

from test_syntax import random_cond, random_stmt

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))
VARS = ("a", "b", "c")


def space_abc():
    # the random constants run from -20 to 99, so most assignments of a
    # constant leave these domains: those states are stuck
    return build_space(
        VarUniverse(
            (
                ("a", int_range_domain("a", -3, 3)),
                ("b", int_range_domain("b", 0, 5)),
                ("c", Domain("c", (-10, 0, 1, 2, 50))),
            )
        )
    )


def assert_same_reports(program, pre, post, space, label=""):
    """verify against the oracle in both modes; returns the oracle's inputs."""
    relation = denote(program, space)
    p, q = pred_to_set(pre, space), pred_to_set(post, space)
    for mode, check in (("total", check_total), ("partial", check_partial)):
        want = Report(mode, check(p, relation, q), space, pre, post, program)
        got = verify(program, pre, post, mode, space)
        context = f"{label} {mode}:\n{pretty_print(program)}"
        assert got.to_json_dict() == want.to_json_dict(), context
        cx, want_cx = got.verdict.counterexample, want.verdict.counterexample
        if want_cx is not None:
            assert (cx.initial_index, cx.final_index) == (want_cx.initial_index, want_cx.final_index), context
    return relation, p, q


def contains(stmt: Stmt, kind) -> bool:
    if isinstance(stmt, kind):
        return True
    return any(isinstance(child, Stmt) and contains(child, kind) for child in vars(stmt).values())


def test_random_programs_match_the_relational_check():
    rng = random.Random(0xD1FF)
    space = space_abc()
    seen = {"havoc": 0, "loop": 0, "stuck": 0, "several bad": 0, "holds": 0, "fails": 0}
    for trial in range(250):
        program = random_stmt(rng, VARS, rng.randrange(1, 5))
        pre = random_cond(rng, VARS, 2)
        post = BoolConst(True) if rng.random() < 0.1 else random_cond(rng, VARS, 2)
        relation, p, q = assert_same_reports(program, pre, post, space, f"trial {trial}")
        rows = [relation.successors_mask(i) for i in p.indices()]
        seen["havoc"] += contains(program, Decl)
        seen["loop"] += contains(program, While)
        seen["stuck"] += any(m == 0 for m in rows)
        seen["several bad"] += any((m & ~q.mask).bit_count() >= 2 for m in rows)
        seen["holds" if check_partial(p, relation, q).holds else "fails"] += 1
    assert min(seen.values()) >= 10, seen


def test_successors_are_the_rows_of_denote():
    rng = random.Random(0x5CC)
    space = space_abc()
    for trial in range(100):
        program = random_stmt(rng, VARS, rng.randrange(1, 5))
        relation = denote(program, space)
        finals_of = successors(program, space)
        # a shuffled order makes loops meet states that earlier calls solved
        order = list(range(space.size))
        rng.shuffle(order)
        for i in order:
            m = relation.successors_mask(i)
            want = tuple(j for j in range(space.size) if m >> j & 1)
            assert finals_of(i) == want, f"trial {trial}, state {i}:\n{pretty_print(program)}"


def test_loops_that_diverge_from_some_states():
    space = space_abc()
    programs = [
        "while (a != 0) a = a;",
        "while (a < 3) { a = a + 2; if (a > 2) a = a - 7; }",
        "while (b != 0) { int b; a = a; }",
        "while (a > 0) { while (b < 5) b = b + a; a = a - 1; }",
        "while (true) { int a; }",
    ]
    for text in programs:
        program = parse_program(text, predeclared=VARS)
        for pre, post in (("true", "a == 0"), ("a >= 1", "b < 4"), ("c == 1", "false")):
            assert_same_reports(
                program, parse_pred(pre, declared=VARS), parse_pred(post, declared=VARS), space, text
            )


def test_overflow_and_out_of_domain_assignments_are_stuck():
    space = space_abc()
    overflow = Assign("a", Mul(Var("a"), Const(1 << 62)))  # UNDEFINED for |a| >= 2
    programs = [
        overflow,
        Seq(Decl("a", "int"), overflow),
        parse_program("a = a + 3; b = b - a;", predeclared=VARS),
        While(Cmp("<", Var("a"), Const(2)), Seq(Decl("c", "int"), overflow)),
    ]
    for program in programs:
        for pre, post in (("true", "true"), ("a != 0", "a == 0"), ("a == 3", "b > 2")):
            assert_same_reports(
                program, parse_pred(pre, declared=VARS), parse_pred(post, declared=VARS), space
            )


def test_the_smallest_bad_final_is_reported():
    space = space_abc()
    program = parse_program("int a; int c;", predeclared=VARS)
    pre = parse_pred("b == 2", declared=VARS)
    post = parse_pred("a == 1 && c == 50", declared=VARS)
    assert_same_reports(program, pre, post, space)
    cx = verify(program, pre, post, "total", space).to_json_dict()["counterexample"]
    assert cx["final"] == {"a": -3, "b": 2, "c": -10}


@pytest.mark.parametrize("path", SPECS, ids=[p.name for p in SPECS])
def test_specs(path):
    task = load_task(str(path))
    space = build_space(task.universe)
    assert_same_reports(task.program, task.pre, task.post, space, path.name)
