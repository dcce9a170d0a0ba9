"""Acceptance gate: one test per shipped criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
`pytest -rA` or `-s`; the per-test PASSED/FAILED line from `pytest -v`
mirrors it) and then asserts, so a FAIL line always comes with a failing
test.  Budgets are wall-clock and generous; the measured times are far
below them.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

from scalc.hoare import check_total, verify, wp
from scalc.laws import (
    EXHAUSTIVE_LIMIT,
    abstract_space,
    check_law,
    exhaustive_binding_count,
    random_predset,
    random_relation,
    registered_laws,
    run_laws,
)
from scalc.predicates import BoolConst, Cmp, Conn, Const, Var
from scalc.semantics import denote
from scalc.specfile import load_task
from scalc.state_space import build_space
from scalc.syntax import IfThenElse, Nop, Seq, While

from test_semantics import relation_stmt

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _verify_spec(name, mode=None):
    task = load_task(str(SPECS / name))
    space = build_space(task.universe)
    return verify(task.program, task.pre, task.post, mode or task.spec.mode, space), space


def test_criterion_1_branching_example_verifies_quickly():
    start = time.perf_counter()
    report, _ = _verify_spec("ex41.spec")
    elapsed = time.perf_counter() - start
    _report(
        1,
        report.verdict.holds and elapsed < 1.0,
        f"branching example holds in {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_2_loop_example_verifies_within_budget():
    start = time.perf_counter()
    report, space = _verify_spec("ex42.spec")
    elapsed = time.perf_counter() - start
    _report(
        2,
        report.verdict.holds and space.size == 2048 and elapsed < 5.0,
        f"factorial loop holds over {space.size} states in {elapsed:.3f}s (budget 5s)",
    )


def test_criterion_3_mutated_specs_are_refuted():
    bad, _ = _verify_spec("ex41_bad.spec")
    cx = bad.verdict.counterexample
    first_ok = (
        not bad.verdict.holds
        and cx.kind == "BadSuccessor"
        and cx.witness_final.as_dict() == {"a": 10}
    )
    weak, _ = _verify_spec("ex42_weak.spec")
    second_ok = not weak.verdict.holds and weak.verdict.counterexample is not None
    _report(
        3,
        first_ok and second_ok,
        "wrong postcondition and weakened precondition both yield counterexamples",
    )


def test_criterion_4_law_suite_clean_with_working_controls():
    start = time.perf_counter()
    results = run_laws()
    bad = [r.law for r in results if not r.ok]
    thin = [r.law for r in results if r.trials < 800]
    not_exhaustive = [
        law.name
        for law in registered_laws(include_negative_controls=True)
        if exhaustive_binding_count(law, 2) > EXHAUSTIVE_LIMIT
    ]
    controls = [law for law in registered_laws(include_negative_controls=True)
                if law.expect_violations]
    silent = [law.name for law in controls if check_law(law.name).ok]
    elapsed = time.perf_counter() - start
    _report(
        4,
        not bad and not thin and not not_exhaustive and not silent
        and len(controls) == 6 and elapsed < 60.0,
        f"{len(results)} laws clean, size-2 bindings fully enumerated, "
        f"{len(controls)} negative controls all violated, {elapsed:.1f}s (budget 60s)",
    )
    assert bad == []
    assert thin == []
    assert not_exhaustive == []
    assert silent == []


def test_criterion_5_weakest_precondition_laws_hold_on_random_draws():
    rng = random.Random(0xACC5)
    failures = 0
    for _ in range(500):
        size = rng.randrange(1, 6)
        space = abstract_space(size)
        s = random_relation(space, rng.getrandbits(64))
        q = random_predset(space, rng.getrandbits(64))
        w = wp(s, q)
        if not check_total(w, s, q).holds:
            failures += 1
            continue
        for _ in range(50):
            p = random_predset(space, rng.getrandbits(64))
            if check_total(p, s, q).holds != p.subset_of(w):
                failures += 1
                break
    _report(
        5,
        failures == 0,
        f"wp is a valid and weakest precondition on 500 random (S, Q) draws "
        f"({failures} failures)",
    )


def test_criterion_6_loop_denotation_is_the_unrolling_fixpoint():
    rng = random.Random(0xACC6)
    mismatches = 0
    for _ in range(200):
        size = rng.randrange(1, 17)
        space = abstract_space(size)
        guard_mask = rng.getrandbits(size)
        arms = [
            Cmp("==", Var("s"), Const(k)) for k in range(size) if guard_mask >> k & 1
        ]
        b = arms[0] if arms else BoolConst(False)
        for arm in arms[1:]:
            b = Conn("||", b, arm)
        # the body is a program that denotes the drawn relation
        relation = random_relation(space, rng.getrandbits(64))
        body = relation_stmt(relation)
        loop = While(b, body)
        w = denote(loop, space)
        unrolled = denote(IfThenElse(b, Seq((body, loop)), Nop()), space)
        if denote(body, space) != relation or list(w.pairs()) != list(unrolled.pairs()):
            mismatches += 1
    _report(
        6,
        mismatches == 0,
        f"while = if-then-else unrolling on 200 random loop programs up to 16 states "
        f"({mismatches} mismatches)",
    )


def test_criterion_7_divergence_splits_total_from_partial():
    total, _ = _verify_spec("diverge.spec")
    partial, _ = _verify_spec("diverge.spec", mode="partial")
    _report(
        7,
        not total.verdict.holds
        and total.verdict.counterexample.kind == "NoSuccessor"
        and partial.verdict.holds,
        "divergent loop fails total correctness (NoSuccessor) and passes partial",
    )


def test_criterion_8_command_line_output_is_byte_deterministic():
    commands = [
        ["verify", str(SPECS / "ex41.spec")],
        ["verify", str(SPECS / "ex41_bad.spec")],
        ["laws", "--law", "thm3.5", "--size", "1", "--trials", "20"],
        ["laws", "--law", "t3", "--size", "2", "--trials", "10", "--seed", "42"],
        ["export-smt", str(SPECS / "ex42.spec"), "--allow-partial-unroll"],
        ["wp", str(SPECS / "ex41.spec"), "--limit", "5"],
        ["dump-relation", str(SPECS / "ex41.spec")],
    ]
    env = {k: v for k, v in os.environ.items() if k != "SCALC_MAX_STATES"}
    unstable = []
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "scalc", *argv],
                capture_output=True,
                env=env,
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            unstable.append(argv[0])
    _report(
        8,
        not unstable,
        f"{len(commands)} command lines produced byte-identical stdout twice"
        + (f" (unstable: {unstable})" if unstable else ""),
    )
