"""Tests for the benchmark's reference interpreter and output checks.

    PYTHONPATH=src python3 -m pytest bench -q

The five committed specs are transcribed into the reference's program
structure; each transcription is first shown to parse, through scalc, to
the same program as the committed file.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

import pytest

import reference
import workloads
from workloads import C, V, Spec

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "specs")

_EX41 = ("seq", (("havoc", "a"), ("assign", "a", C(5)),
                 ("if", (">", V("a"), C(0)), ("assign", "a", C(10)), ("assign", "a", C(100)))))
_EX42 = ("while", ("<=", V("i"), V("n")),
         ("seq", (("assign", "f", ("*", V("f"), V("i"))), ("assign", "i", ("+", V("i"), C(1))))))
_EX42_VARS = (("i", 0, 7), ("n", 0, 7), ("f", 0, 31))
_EX42_PRE = ("&&", ("&&", ("==", V("i"), C(2)), ("==", V("n"), C(4))), ("==", V("f"), C(1)))

COMMITTED = {
    "ex41": Spec("ex41", (("a", -128, 127),), _EX41, ("true",), ("==", V("a"), C(10))),
    "ex41_bad": Spec("ex41_bad", (("a", -128, 127),), _EX41, ("true",), ("==", V("a"), C(100))),
    "ex42": Spec("ex42", _EX42_VARS, _EX42, _EX42_PRE, ("==", V("f"), C(24))),
    "ex42_weak": Spec("ex42_weak", _EX42_VARS, _EX42, ("true",), ("==", V("f"), C(24))),
    "diverge": Spec(
        "diverge",
        (("i", 0, 7),),
        ("while", (">=", V("i"), C(0)), ("assign", "i", ("+", V("i"), C(1)))),
        ("==", V("i"), C(0)),
        ("true",),
    ),
}


def _scalc(argv) -> tuple[int, str]:
    from scalc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_transcription_matches_committed_spec(name, tmp_path):
    from scalc.specfile import load_task

    path = tmp_path / f"{name}.spec"
    path.write_text(COMMITTED[name].text())
    mine, theirs = load_task(str(path)), load_task(os.path.join(SPECS, f"{name}.spec"))
    assert (mine.program, mine.pre, mine.post, mine.universe) == (
        theirs.program,
        theirs.pre,
        theirs.post,
        theirs.universe,
    )


def test_ex41_holds():
    assert reference.expected_verify(COMMITTED["ex41"], "total")["holds"]


def test_ex41_bad_fails_with_bad_successor_at_ten():
    got = reference.expected_verify(COMMITTED["ex41_bad"], "total")
    assert got["counterexample"] == {"kind": "BadSuccessor", "initial": {"a": -128}, "final": {"a": 10}}
    assert got["stats"] == {"states_checked": 1, "pairs_checked": 1}


def test_ex42_holds_from_one_state():
    got = reference.expected_verify(COMMITTED["ex42"], "total")
    assert got["holds"] and got["stats"] == {"states_checked": 1, "pairs_checked": 1}


def test_ex42_weak_fails():
    assert not reference.expected_verify(COMMITTED["ex42_weak"], "total")["holds"]


def test_diverge_has_no_successor_in_total_mode_and_holds_in_partial_mode():
    total = reference.expected_verify(COMMITTED["diverge"], "total")
    assert total["counterexample"] == {"kind": "NoSuccessor", "initial": {"i": 0}, "final": None}
    assert reference.expected_verify(COMMITTED["diverge"], "partial")["holds"]


def test_index_is_row_major_with_the_last_variable_fastest():
    model = reference.Model((("x", -1, 1), ("y", 0, 3)), ("assign", "x", V("x")))
    assert [model.state(i) for i in range(5)] == [(-1, 0), (-1, 1), (-1, 2), (-1, 3), (0, 0)]
    assert all(model.index(model.state(i)) == i for i in range(model.size))


def test_havoc_inside_a_loop_and_cycles():
    # t is redrawn each pass until it is 0; every state reaches t == 0.
    model = reference.Model(
        (("t", 0, 2), ("k", 0, 3)),
        ("while", ("!=", V("t"), C(0)), ("seq", (("havoc", "t"), ("assign", "k", V("k"))))),
    )
    assert model.outcomes((2, 3)) == ((0, 3),)
    # k alternates 1 <-> 2 forever; 0 and 3 exit at once.
    cycle = reference.Model((("k", 0, 3),), ("while", ("&&", (">", V("k"), C(0)), ("<", V("k"), C(3))),
                                             ("assign", "k", ("-", C(3), V("k")))))
    assert [cycle.outcomes((k,)) for k in range(4)] == [((0,),), (), (), ((3,),)]


def test_law_trial_count_of_the_documented_default_run():
    # README: thm3.5 at the default sizes 1-4 and 200 trials reports 4988.
    assert 4988 in reference.law_trial_counts(1, 1, (1, 2, 3, 4), 200)


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_reference_agrees_with_scalc_on_generated_specs(family, tmp_path):
    rng = random.Random(family)
    cases = [
        (workloads.narrow_spec(family, 2048, True, rng), ("verify", "--mode", "total")),
        (workloads.narrow_spec(family, 2048, False, rng), ("verify", "--mode", "partial")),
        (workloads.whole_spec(family, 2048, rng, "verify"), ("verify", "--mode", "partial")),
        (workloads.whole_spec(family, 2048, rng, "wp"), ("wp", "--limit", "10")),
        (workloads.whole_spec(family, 2048, rng, "dump-relation"), ("dump-relation",)),
    ]
    for k, (spec, (command, *tail)) in enumerate(cases):
        path = tmp_path / f"{k}.spec"
        path.write_text(spec.text())
        argv = (command, str(path), *tail)
        rc, out = _scalc(argv)
        assert reference.check_spec_op(argv, spec, rc, out) is None, spec.text()


def test_checks_reject_a_wrong_output(tmp_path):
    spec = COMMITTED["ex41_bad"]
    path = tmp_path / "bad.spec"
    path.write_text(spec.text())
    argv = ("verify", str(path), "--mode", "total")
    rc, out = _scalc(argv)
    assert reference.check_spec_op(argv, spec, rc, out) is None
    assert reference.check_spec_op(argv, spec, rc, out.replace('"a": 10', '"a": 11')) is not None
    assert reference.check_spec_op(argv, spec, 0, out) is not None


def test_law_checks():
    argv = ("laws", "--law", "t11-variant", "--size", "1", "--size", "2", "--trials", "20", "--seed", "3")
    rc, out = _scalc(argv)
    reason, trials = reference.check_laws_op(argv, rc, out, workloads.NEGATIVE_CONTROLS)
    assert reason is None and trials > 0
    hidden = out.replace(out.split('"violations": ')[1].split("}")[0], "0")
    assert reference.check_laws_op(argv, rc, hidden, workloads.NEGATIVE_CONTROLS)[0] is not None
    argv = ("laws", "--size", "2", "--trials", "5", "--seed", "3")
    rc, out = _scalc(argv)
    assert reference.check_laws_op(argv, rc, out, workloads.NEGATIVE_CONTROLS) == (
        None,
        sum(int(line.split('"trials": ')[1].split(",")[0]) for line in out.splitlines()),
    )
