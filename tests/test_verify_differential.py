"""`verify` explores forward from the precondition's states only;
`denote`, `program_wp` and `dump-relation` read the same forward semantics
for every state.  The relational path they replaced stays here as the
oracle: the relational semantics of `test_semantics.relational_denote`,
then `test_hoare.reference_verdict` or `reference_wp` over that relation's
bitmask rows, with P and Q evaluated state by state.  `verify` must print the same report: verdict,
counterexample and stats; `denote` must build the same relation, and
`program_wp` the same set."""

import itertools
import json
import random
from pathlib import Path

import pytest

from scalc.cli import main
from scalc.hoare import Report, program_wp, verify
from scalc.predicates import INT64_MAX, Arith, BoolConst, Cmp, Const, Var
from scalc.semantics import denote, successors
from scalc.specfile import load_task
from scalc.state_space import Domain, VarUniverse, build_space
from scalc.syntax import Assign, Decl, Seq, Stmt, While, parse_pred, parse_program, pretty_print, statements

from test_hoare import reference_verdict, reference_wp
from test_predicates import pointwise_pred_to_set
from test_semantics import relational_denote
from test_syntax import random_cond, random_stmt, seq_of

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))
VARS = ("a", "b", "c")


EDGE = INT64_MAX - 4


def space_abc(c_low=-2):
    # the random constants run from -20 to 99, so most assignments of a
    # constant leave these domains: those states are stuck.  With c_low =
    # EDGE, c ends at INT64_MAX, where adding to it or multiplying it
    # overflows
    return build_space(
        VarUniverse(
            (
                ("a", Domain("a", -3, 3)),
                ("b", Domain("b", 0, 5)),
                ("c", Domain("c", c_low, c_low + 4)),
            )
        )
    )


def assert_same_reports(program, pre, post, space, label=""):
    """verify against the oracle in both modes; returns the oracle's inputs."""
    relation = relational_denote(program, space)
    p, q = pointwise_pred_to_set(pre, space), pointwise_pred_to_set(post, space)
    for mode in ("total", "partial"):
        want = Report(mode, reference_verdict(p, relation, q, mode))
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
    space = space_abc(EDGE)
    seen = {"havoc": 0, "loop": 0, "stuck": 0, "several bad": 0, "holds": 0, "fails": 0}
    for trial in range(250):
        program = random_stmt(rng, VARS, rng.randrange(1, 5))
        pre = random_cond(rng, VARS, 2)
        post = BoolConst(True) if rng.random() < 0.1 else random_cond(rng, VARS, 2)
        relation, p, q = assert_same_reports(program, pre, post, space, f"trial {trial}")
        rows = [relation.succ[i] for i in p.indices()]
        seen["havoc"] += contains(program, Decl)
        seen["loop"] += contains(program, While)
        seen["stuck"] += any(m == 0 for m in rows)
        seen["several bad"] += any((m & ~q.mask).bit_count() >= 2 for m in rows)
        seen["holds" if reference_verdict(p, relation, q, "partial").holds else "fails"] += 1
    assert min(seen.values()) >= 10, seen


def diverges(loop: While, space) -> bool:
    """Whether some state starts an endless chain of guarded body steps:
    the greatest set of guard states with a body successor in the set."""
    guard = pointwise_pred_to_set(loop.cond, space)
    body = relational_denote(loop.body, space)
    endless = guard.mask
    while True:
        keep = sum(1 << h for h in guard.indices() if endless >> h & 1 and body.succ[h] & endless)
        if keep == endless:
            return endless != 0
        endless = keep


def loops(stmt: Stmt):
    if isinstance(stmt, While):
        yield stmt
    for child in vars(stmt).values():
        if isinstance(child, Stmt):
            yield from loops(child)


def declares_then_more(stmt: Stmt) -> bool:
    """Whether a declaration is followed by another statement of its
    sequence: where `successors` keeps its finals by base."""
    return any(
        isinstance(s, Seq) and any(isinstance(part, Decl) for part in s.parts[:-1]) for s in statements(stmt)
    )


def loop_declaring_then_more(rng) -> While:
    """`while (p) { T v; s }`: the heads that go round again leave with
    any of several values of v."""
    rest = random_stmt(rng, VARS, rng.randrange(0, 2))
    return While(random_cond(rng, VARS, 2), seq_of([Decl(rng.choice(VARS), "int"), rest]))


def test_denote_is_relational_denote():
    rng = random.Random(0x5CC)
    # the random programs, then loops that the random draws seldom build
    extra = random.Random(0x5CD)
    programs = itertools.chain(
        (random_stmt(rng, VARS, rng.randrange(1, 5)) for _ in range(250)),
        (loop_declaring_then_more(extra) for _ in range(80)),
    )
    space = space_abc()
    seen = {
        "havoc": 0,
        "loop": 0,
        "divergence": 0,
        "stuck": 0,
        "declaration then more": 0,
        "declaration then more in a loop body": 0,
        "head with several finals": 0,
    }
    for trial, program in enumerate(programs):
        want = relational_denote(program, space)
        context = f"trial {trial}:\n{pretty_print(program)}"
        assert denote(program, space) == want, context
        # a shuffled order makes loops meet states that earlier calls solved
        finals_of = successors(program, space)
        order = list(range(space.size))
        rng.shuffle(order)
        for i in order:
            m = want.succ[i]
            assert finals_of(i) == tuple(j for j in range(space.size) if m >> j & 1), f"state {i}, {context}"
        # every head of every loop, whether or not the program reaches it
        loop_rows = []
        for loop in loops(program):
            want_loop = relational_denote(loop, space)
            assert denote(loop, space) == want_loop, context
            loop_rows += want_loop.succ
        diverging = any(diverges(loop, space) for loop in loops(program))
        seen["havoc"] += contains(program, Decl)
        seen["loop"] += contains(program, While)
        seen["divergence"] += diverging
        # with no loop that can run forever, an empty row is a stuck assignment
        seen["stuck"] += not diverging and any(m == 0 for m in want.succ)
        seen["declaration then more"] += declares_then_more(program)
        seen["declaration then more in a loop body"] += any(map(declares_then_more, (w.body for w in loops(program))))
        seen["head with several finals"] += any(m.bit_count() >= 2 for m in loop_rows)
    assert min(seen.values()) >= 10, seen


def test_streamed_wp_is_wp_of_the_relational_denotation():
    rng = random.Random(0x3A7)
    space = space_abc(EDGE)
    seen = {"havoc": 0, "loop": 0, "divergence": 0, "stuck": 0}
    for trial in range(250):
        program = random_stmt(rng, VARS, rng.randrange(1, 5))
        post = BoolConst(True) if rng.random() < 0.1 else random_cond(rng, VARS, 2)
        relation = relational_denote(program, space)
        want = reference_wp(relation, pointwise_pred_to_set(post, space))
        assert program_wp(program, post, space) == want, f"trial {trial}:\n{pretty_print(program)}"
        diverging = any(diverges(loop, space) for loop in loops(program))
        seen["havoc"] += contains(program, Decl)
        seen["loop"] += contains(program, While)
        seen["divergence"] += diverging
        seen["stuck"] += not diverging and any(m == 0 for m in relation.succ)
    assert min(seen.values()) >= 10, seen


def test_dump_relation_prints_the_relational_pairs(tmp_path, capsys):
    rng = random.Random(0xD0)
    header = "[vars]\na: int -3..3\nb: int 0..5\nc: int -2..2\n[program]\n"
    for trial in range(40):
        program = random_stmt(rng, VARS, rng.randrange(1, 5))
        spec = tmp_path / f"t{trial}.spec"
        spec.write_text(header + pretty_print(program))
        assert main(["dump-relation", str(spec)]) == 0
        pairs = [tuple(json.loads(line)) for line in capsys.readouterr().out.splitlines()]
        want = relational_denote(program, build_space(load_task(str(spec)).universe))
        assert pairs == list(want.pairs()), f"trial {trial}:\n{pretty_print(program)}"


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
    overflow = Assign("a", Arith("*", Var("a"), Const(1 << 62)))  # UNDEFINED for |a| >= 2
    programs = [
        overflow,
        Seq((Decl("a", "int"), overflow)),
        parse_program("a = a + 3; b = b - a;", predeclared=VARS),
        While(Cmp("<", Var("a"), Const(2)), Seq((Decl("c", "int"), overflow))),
    ]
    for program in programs:
        for pre, post in (("true", "true"), ("a != 0", "a == 0"), ("a == 3", "b > 2")):
            assert_same_reports(
                program, parse_pred(pre, declared=VARS), parse_pred(post, declared=VARS), space
            )


def test_a_declaration_after_which_every_outcome_aborts():
    # the finals kept for each base are the empty tuple, in some bases or all
    space = space_abc()
    programs = [
        "int a; b = b + 10;",
        "int a; if (b > 2) b = b + 10; a = a + 1;",
        "while (a < 3) { int c; a = a + c; }",
    ]
    for text in programs:
        program = parse_program(text, predeclared=VARS)
        assert denote(program, space) == relational_denote(program, space), text
        for pre, post in (("true", "true"), ("b == 2", "a == 0")):
            pre, post = parse_pred(pre, declared=VARS), parse_pred(post, declared=VARS)
            assert_same_reports(program, pre, post, space, text)


def test_the_smallest_bad_final_is_reported():
    space = space_abc()
    program = parse_program("int a; int c;", predeclared=VARS)
    pre = parse_pred("b == 2", declared=VARS)
    post = parse_pred("a == 1 && c == 50", declared=VARS)
    assert_same_reports(program, pre, post, space)
    cx = verify(program, pre, post, "total", space).to_json_dict()["counterexample"]
    assert cx["final"] == {"a": -3, "b": 2, "c": -2}


@pytest.mark.parametrize("path", SPECS, ids=[p.name for p in SPECS])
def test_specs(path):
    task = load_task(str(path))
    space = build_space(task.universe)
    assert_same_reports(task.program, task.pre, task.post, space, path.name)
