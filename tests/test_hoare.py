import random

import pytest

from scalc.errors import SpaceMismatchError
from scalc.hoare import (
    BAD_SUCCESSOR,
    NO_SUCCESSOR,
    PARTIAL_VIOLATION,
    CheckStats,
    Counterexample,
    Verdict,
    check_partial,
    check_total,
    program_wp,
    verify,
    wp,
)
from scalc.predicates import PredSet, pred_to_set
from scalc.semantics import (
    Relation,
    denote,
    empty_relation,
    full_relation,
    identity_relation,
    relation_from_pairs,
)
from scalc.state_space import Domain, VarUniverse, build_space, index_to_state
from scalc.syntax import parse_pred, parse_program


# ---------------------------------------------------------------------------
# The oracles: the checks and wp as they read a relation's bitmask rows
# before every question became one scan over rows of finals.  They stay
# independent of `hoare`'s scans, which `verify` and `program_wp` share.


def reference_verdict(p: PredSet, s: Relation, q: PredSet, mode: str) -> Verdict:
    """The verdict of (p, s, q) in `mode`, "total" or "partial"."""
    states = 0
    pairs = 0
    cx = None
    for i in range(s.space.size):
        if not p.mask >> i & 1:
            continue
        states += 1
        m = s.succ[i]
        pairs += m.bit_count()
        if not m and mode == "total":
            cx = Counterexample(NO_SUCCESSOR, index_to_state(s.space, i), None, i, None)
            break
        bad = m & ~q.mask
        if bad:
            j = (bad & -bad).bit_length() - 1
            kind = BAD_SUCCESSOR if mode == "total" else PARTIAL_VIOLATION
            cx = Counterexample(kind, index_to_state(s.space, i), index_to_state(s.space, j), i, j)
            break
    return Verdict(cx is None, cx, CheckStats(states, pairs))


def reference_wp(s: Relation, q: PredSet) -> PredSet:
    """The states with some successor and only q-successors."""
    mask = 0
    for i, m in enumerate(s.succ):
        if m and m & ~q.mask == 0:
            mask |= 1 << i
    return PredSet(q.size, mask)


def tiny_space(size):
    return build_space(VarUniverse((("s", Domain("s", 0, size - 1)),)))


def ex_space():
    return build_space(VarUniverse((("a", Domain("a", 5, 7)),)))


def random_rel(space, rng):
    return Relation(
        space, tuple(rng.getrandbits(space.size) for _ in range(space.size))
    )


def random_bits(size, rng):
    """Empty, full or random bits, each about a third of the draws."""
    return rng.choice((0, (1 << size) - 1, rng.getrandbits(size)))


def random_set(size, rng):
    return PredSet(size, rng.getrandbits(size))


class TestAgainstTheReferences:
    def test_checks_and_wp_read_what_the_bitmask_rows_say(self):
        rng = random.Random(0x5CA4)
        seen = {"empty row": 0, "full row": 0, "several bad": 0, "holds": 0, "no successor": 0, "bad successor": 0}
        for trial in range(400):
            sp = tiny_space(rng.randint(1, 8))
            s = Relation(sp, tuple(random_bits(sp.size, rng) for _ in range(sp.size)))
            p, q = PredSet(sp.size, random_bits(sp.size, rng)), PredSet(sp.size, random_bits(sp.size, rng))
            for mode, check in (("total", check_total), ("partial", check_partial)):
                got = check(p, s, q)
                assert got == reference_verdict(p, s, q, mode), (trial, mode, s, p, q)
                if got.counterexample is not None:
                    seen["no successor" if got.counterexample.final_index is None else "bad successor"] += 1
            assert wp(s, q) == reference_wp(s, q), (trial, s, q)
            rows = [s.succ[i] for i in p.indices()]
            seen["empty row"] += 0 in rows
            seen["full row"] += (1 << sp.size) - 1 in rows
            seen["several bad"] += any((m & ~q.mask).bit_count() >= 2 for m in rows)
            seen["holds"] += check_total(p, s, q).holds
        assert min(seen.values()) >= 10, seen


class TestCheckTotal:
    def test_identity_preserves_anything(self):
        sp = tiny_space(6)
        rng = random.Random(1)
        for _ in range(20):
            q = random_set(sp.size, rng)
            assert check_total(q, identity_relation(sp), q).holds

    def test_empty_relation_fails_on_nonempty_precondition(self):
        sp = tiny_space(4)
        v = check_total(PredSet.full(4), empty_relation(sp), PredSet.full(4))
        assert not v.holds
        assert v.counterexample.kind == "NoSuccessor"
        assert v.counterexample.initial_index == 0
        assert v.counterexample.witness_final is None

    def test_empty_precondition_holds_vacuously(self):
        sp = tiny_space(4)
        v = check_total(PredSet.empty(4), empty_relation(sp), PredSet.empty(4))
        assert v.holds
        assert v.stats.states_checked == 0

    def test_bad_successor_details(self):
        sp = ex_space()
        p = PredSet.from_indices(3, (0,))  # a=5
        q = PredSet.from_indices(3, (1,))  # a=6
        v = check_total(p, identity_relation(sp), q)
        assert v.counterexample.kind == "BadSuccessor"
        assert v.counterexample.initial.as_dict() == {"a": 5}
        assert v.counterexample.witness_final.as_dict() == {"a": 5}

    def test_smallest_initial_then_smallest_final(self):
        sp = tiny_space(4)
        s = relation_from_pairs(sp, [(0, 1), (0, 3), (2, 0)])
        q = PredSet.from_indices(4, (3,))
        v = check_total(PredSet.full(4), s, q)
        assert v.counterexample.initial_index == 0
        assert v.counterexample.final_index == 1

    def test_stats_count_scanned_not_total(self):
        sp = tiny_space(5)
        s = relation_from_pairs(sp, [(0, 0), (1, 1), (2, 2)])
        v = check_total(PredSet.full(5), s, PredSet.full(5))
        # scan stops at the first failure, index 3
        assert not v.holds
        assert v.stats.states_checked == 4
        assert v.stats.pairs_checked == 3


class TestCheckPartial:
    def test_divergence_is_fine(self):
        sp = tiny_space(4)
        v = check_partial(PredSet.full(4), empty_relation(sp), PredSet.empty(4))
        assert v.holds

    def test_violation_witness(self):
        sp = ex_space()
        p = PredSet.from_indices(3, (0,))
        q = PredSet.from_indices(3, (1,))
        v = check_partial(p, identity_relation(sp), q)
        assert not v.holds
        assert v.counterexample.kind == "PartialViolation"
        assert v.counterexample.initial.as_dict() == {"a": 5}

    def test_total_implies_partial(self):
        sp = tiny_space(5)
        rng = random.Random(2)
        for _ in range(200):
            p, q = random_set(5, rng), random_set(5, rng)
            s = random_rel(sp, rng)
            if check_total(p, s, q).holds:
                assert check_partial(p, s, q).holds

    def test_partial_plus_termination_equals_total(self):
        sp = tiny_space(5)
        rng = random.Random(3)
        for _ in range(200):
            p, q = random_set(5, rng), random_set(5, rng)
            s = random_rel(sp, rng)
            terminates = all(s.succ[i] for i in p.indices())
            expected = check_partial(p, s, q).holds and terminates
            assert check_total(p, s, q).holds == expected


class TestWp:
    def test_wp_of_false_is_empty(self):
        sp = tiny_space(5)
        rng = random.Random(4)
        for _ in range(30):
            assert wp(random_rel(sp, rng), PredSet.empty(5)).is_empty()

    def test_wp_of_identity_is_the_postcondition(self):
        sp = tiny_space(6)
        rng = random.Random(5)
        for _ in range(30):
            q = random_set(6, rng)
            assert wp(identity_relation(sp), q) == q

    def test_wp_under_empty_relation_is_empty(self):
        sp = tiny_space(4)
        assert wp(empty_relation(sp), PredSet.full(4)).is_empty()

    def test_wp_under_full_relation(self):
        sp = tiny_space(4)
        assert wp(full_relation(sp), PredSet.full(4)).is_full()
        assert wp(full_relation(sp), PredSet.from_indices(4, (1,))).is_empty()

    def test_branching_example_wp_is_everything(self):
        sp = ex_space()
        s = denote(parse_program("int a=5; if (a > 0) a=7; else a=100;"), sp)
        q = pred_to_set(parse_pred("a == 7", declared=("a",)), sp)
        assert wp(s, q).is_full()

    def test_wp_is_a_valid_precondition(self):
        sp = tiny_space(6)
        rng = random.Random(6)
        for _ in range(100):
            s = random_rel(sp, rng)
            q = random_set(6, rng)
            assert check_total(wp(s, q), s, q).holds

    def test_wp_is_the_weakest_one(self):
        sp = tiny_space(6)
        rng = random.Random(7)
        for _ in range(100):
            s = random_rel(sp, rng)
            q = random_set(6, rng)
            w = wp(s, q)
            for _ in range(10):
                p = random_set(6, rng)
                assert check_total(p, s, q).holds == p.subset_of(w)


class TestCounterexampleSoundness:
    def test_replay(self):
        sp = tiny_space(6)
        rng = random.Random(8)
        for _ in range(300):
            p, q = random_set(6, rng), random_set(6, rng)
            s = random_rel(sp, rng)
            for verdict, partial in ((check_total(p, s, q), False),
                                     (check_partial(p, s, q), True)):
                cx = verdict.counterexample
                if cx is None:
                    continue
                assert cx.initial_index in p
                if cx.kind == "NoSuccessor":
                    assert not partial
                    assert s.succ[cx.initial_index] == 0
                else:
                    assert s.has_pair(cx.initial_index, cx.final_index)
                    assert cx.final_index not in q


class TestVerifyReport:
    def test_holding_report_shape(self):
        sp = ex_space()
        program = parse_program("a = 7;", predeclared=("a",))
        post = parse_pred("a == 7", declared=("a",))
        report = verify(program, parse_pred("true"), post, "total", sp)
        assert report.to_json_dict() == {
            "mode": "total",
            "holds": True,
            "counterexample": None,
            "stats": {"states_checked": 3, "pairs_checked": 3},
        }
        assert program_wp(program, post, sp).count() == 3

    def test_failing_report_shape(self):
        sp = ex_space()
        report = verify(
            parse_program(";"),
            parse_pred("a == 5", declared=("a",)),
            parse_pred("a == 7", declared=("a",)),
            "partial",
            sp,
        )
        assert report.to_json_dict() == {
            "mode": "partial",
            "holds": False,
            "counterexample": {
                "kind": "PartialViolation",
                "initial": {"a": 5},
                "final": {"a": 5},
            },
            "stats": {"states_checked": 1, "pairs_checked": 1},
        }

    def test_mode_validation(self):
        sp = ex_space()
        with pytest.raises(ValueError):
            verify(parse_program(";"), parse_pred("true"), parse_pred("true"), "both", sp)


class TestSpaceChecks:
    def test_mismatched_sets_rejected(self):
        sp = tiny_space(4)
        with pytest.raises(SpaceMismatchError):
            check_total(PredSet.full(5), identity_relation(sp), PredSet.full(4))
        with pytest.raises(SpaceMismatchError):
            check_partial(PredSet.full(4), identity_relation(sp), PredSet.full(3))
        with pytest.raises(SpaceMismatchError):
            wp(identity_relation(sp), PredSet.full(5))
