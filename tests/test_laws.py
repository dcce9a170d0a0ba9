"""The law suite checked here at reduced sizes/trials; the full-strength run
(default sizes and trial counts) lives in the acceptance tests.  The laws
about triples and wp are also checked, binding by binding, against set-level
restatements over `check_total` and `wp`, the oracle of their S-formulas.
`check_law`, which runs a phase's bindings as the lanes of one evaluation,
is checked against `reference_check_law`, which runs them one at a time."""

import itertools
import re

import pytest

from scalc import laws
from scalc.errors import ArityMismatchError, UnboundStateVariableError, UnknownLawError
from scalc.formulas import FAnd, Forall, PredApp, RelApp, compile_sformula, eval_sformula, free_vars
from scalc.hoare import check_total, wp
from scalc.laws import (
    EXHAUSTIVE_LIMIT,
    FIXED,
    LANE_BITS,
    LAWS,
    LawInstance,
    LawResult,
    _register,
    abstract_space,
    check_law,
    exhaustive_binding_count,
    get_law,
    random_predset,
    random_relation,
    registered_laws,
    run_laws,
)
from scalc.predicates import PredSet
from scalc.rng import derive_seed
from scalc.semantics import Relation, empty_relation, full_relation, identity_relation
from scalc.state_space import Domain, StateSpace, VarUniverse

# ---------------------------------------------------------------------------
# the per-binding reference: each binding built as objects and run alone


def _fixed_env(law, space):
    return {sym: FIXED[sym](space.size) for sym in law.fixed}


def _boundary_envs(law, space):
    pred_options = [PredSet.empty(space.size), PredSet.full(space.size)]
    rel_options = [empty_relation(space), full_relation(space), identity_relation(space)]
    option_lists = [pred_options] * len(law.pred_symbols) + [rel_options] * len(law.rel_symbols)
    symbols = law.pred_symbols + law.rel_symbols
    for combo in itertools.product(*option_lists):
        env = _fixed_env(law, space)
        env.update(zip(symbols, combo))
        yield env


def _exhaustive_envs(law, space):
    n = space.size
    ranges = [range(2**n)] * len(law.pred_symbols) + [range(2 ** (n * n))] * len(law.rel_symbols)
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


def _random_env(law, space, seed, trial):
    env = _fixed_env(law, space)
    for sym in law.pred_symbols + law.rel_symbols:
        draw = random_predset if sym in law.pred_symbols else random_relation
        env[sym] = draw(space, derive_seed(seed, f"{law.name}/{space.size}/{trial}/{sym}"))
    return env


def reference_check_law(name, trials=laws.DEFAULT_TRIALS, sizes=laws.DEFAULT_SIZES,
                        seed=laws.DEFAULT_SEED, exhaustive_only=False):
    """`check_law` one binding at a time, through the one-lane evaluator."""
    law = get_law(name)
    check = compile_sformula(law.formula)[1]
    violations = []
    count = 0

    def run(space, phase, envs):
        nonlocal count
        for idx, env in enumerate(envs):
            count += 1
            if not check(env, space.size):
                inst_seed = derive_seed(seed, f"{law.name}/{space.size}/{idx}") if phase == "random" else idx
                bindings = tuple(sorted(env.items()))
                violations.append(LawInstance(law.name, space.size, f"{phase}-{idx}", inst_seed, bindings))

    for size in sizes:
        space = abstract_space(size)
        if exhaustive_only:
            run(space, "exhaustive", _exhaustive_envs(law, space))
            continue
        run(space, "boundary", _boundary_envs(law, space))
        if exhaustive_binding_count(law, size) <= EXHAUSTIVE_LIMIT:
            run(space, "exhaustive", _exhaustive_envs(law, space))
        run(space, "random", (_random_env(law, space, seed, trial) for trial in range(trials)))
    return LawResult(law.name, count, tuple(violations))


NEGATIVE_CONTROLS = (
    "negative-control-1",
    "negative-control-2",
    "t11-variant",
    "t20-variant",
    "thm3.6d-variant",
    "thm3.6e-converse",
)


class TestRegistry:
    def test_negative_controls_marked_and_excluded(self):
        default = {law.name for law in registered_laws()}
        everything = {law.name for law in registered_laws(include_negative_controls=True)}
        assert everything - default == set(NEGATIVE_CONTROLS)
        for name in NEGATIVE_CONTROLS:
            assert get_law(name).expect_violations

    def test_unknown_law(self):
        with pytest.raises(UnknownLawError):
            get_law("thm9.9")
        with pytest.raises(UnknownLawError):
            check_law("nonsense")

    def test_every_law_is_a_compiled_closed_formula(self):
        assert len(LAWS) == 53
        sp = abstract_space(2)
        for law in LAWS.values():
            assert free_vars(law.formula) == frozenset()
            check = compile_sformula(law.formula)[1]
            for env in _boundary_envs(law, sp):
                assert bool(check(env, sp.size)) == eval_sformula(law.formula, env, sp)

    def test_every_law_has_a_title(self):
        for law in LAWS.values():
            assert law.title

    @pytest.mark.parametrize(
        "template, error",
        [
            (Forall("x", RelApp("S", "x", "y")), UnboundStateVariableError),
            (Forall("x", FAnd(PredApp("S", "x"), RelApp("S", "x", "x"))), ArityMismatchError),
        ],
        ids=["free-state-variable", "two-arities"],
    )
    def test_a_bad_template_fails_when_registered(self, template, error):
        before = dict(LAWS)
        with pytest.raises(error):
            _register("bad-template", "not a law", template)
        assert LAWS == before


class TestRandomBindings:
    def test_predset_deterministic_per_seed(self):
        sp = abstract_space(4)
        assert random_predset(sp, 1234) == random_predset(sp, 1234)
        assert random_predset(sp, 1234) != random_predset(sp, 1235)

    def test_predset_membership_is_roughly_half(self):
        sp = abstract_space(4)
        mean = sum(random_predset(sp, s).count() for s in range(10_000)) / 10_000
        assert abs(mean - 2.0) < 0.05

    def test_relation_density_is_roughly_half(self):
        sp = abstract_space(3)
        mean = sum(random_relation(sp, s).pair_count() for s in range(10_000)) / 10_000
        assert abs(mean - 4.5) < 0.1

    def test_empty_space_edge(self):
        space = StateSpace(VarUniverse((("s", Domain("s", ())),)), 0, (1,))
        assert random_predset(space, 7).size == 0
        assert random_relation(space, 7).pair_count() == 0


class TestPositiveLaws:
    @pytest.mark.parametrize("name", [law.name for law in registered_laws()])
    def test_holds_at_small_sizes(self, name):
        result = check_law(name, trials=25, sizes=(1, 2))
        assert result.ok, result.violations[:3]
        assert result.trials >= 50

    def test_exhaustive_size_two_binding_count(self):
        result = check_law("thm3.5", exhaustive_only=True, sizes=(2,))
        assert result.ok
        assert result.trials == 64  # 2 predicate sets x 1 relation: 4*4*4

    def test_exhaustive_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            check_law("thm3.5", exhaustive_only=True, sizes=(5,))


class TestNegativeControls:
    @pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
    def test_violations_found_without_random_trials(self, name):
        # boundary bindings and size-2 exhaustion alone expose each non-theorem
        result = check_law(name, trials=0, sizes=(1, 2))
        assert len(result.violations) >= 1
        assert not result.ok

    def test_random_violations_carry_their_replay_seed(self):
        result = check_law("negative-control-2", trials=30, sizes=(3,), seed=77)
        random_hits = [inst for inst in result.violations if inst.label.startswith("random-")]
        assert random_hits
        for inst in random_hits:
            trial = int(inst.label.removeprefix("random-"))
            assert inst.seed == derive_seed(77, f"negative-control-2/3/{trial}")
            law = get_law("negative-control-2")
            assert dict(inst.bindings) == _random_env(law, abstract_space(3), 77, trial)

    def test_violation_instances_replay(self):
        result = check_law("negative-control-1", trials=0, sizes=(1, 2))
        check = compile_sformula(get_law("negative-control-1").formula)[1]
        for inst in result.violations[:5]:
            env = dict(inst.bindings)
            assert not check(env, inst.size)


class TestLanesAgreeWithTheReference:
    """`check_law` returns what the per-binding loop returns: the trial
    count, and each violation's label, seed and bindings, in order."""

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_every_law(self, name):
        for seed in (0, 7, 0x5CA1C0DE):
            assert check_law(name, trials=12, seed=seed) == reference_check_law(name, trials=12, seed=seed)
        assert check_law(name, sizes=(1, 2), exhaustive_only=True) == reference_check_law(
            name, sizes=(1, 2), exhaustive_only=True
        )

    def test_random_trials_over_three_chunks(self):
        law = get_law("negative-control-2")
        trials = 2 * (LANE_BITS // 3**law.width) + 1
        result = check_law(law.name, trials=trials, sizes=(3,), seed=5)
        assert result == reference_check_law(law.name, trials=trials, sizes=(3,), seed=5)
        assert result.violations[-1].label.startswith("random-")

    @pytest.mark.parametrize("name", ["negative-control-1", "thm3.6e-converse", "t1", "t20-variant"])
    def test_every_phase_over_many_chunks(self, monkeypatch, name):
        monkeypatch.setattr(laws, "LANE_BITS", 40)  # ten lanes at size 2
        assert check_law(name, trials=25, sizes=(1, 2, 3), seed=3) == reference_check_law(
            name, trials=25, sizes=(1, 2, 3), seed=3
        )
        assert check_law(name, sizes=(2,), exhaustive_only=True) == reference_check_law(
            name, sizes=(2,), exhaustive_only=True
        )

    @pytest.mark.parametrize("name", ["thm3.1c", "thm5.7", "t1", "negative-control-2"])
    def test_a_large_space(self, name):
        # one lane's relation mask is 1600 bits, so a chunk holds few lanes
        assert check_law(name, trials=2, sizes=(40,)) == reference_check_law(name, trials=2, sizes=(40,))


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = check_law("thm5.7", trials=40, sizes=(1, 2, 3), seed=99)
        b = check_law("thm5.7", trials=40, sizes=(1, 2, 3), seed=99)
        assert a == b

    def test_violation_count_bounded_by_trials(self):
        result = check_law("negative-control-2", trials=10, sizes=(1, 2))
        assert len(result.violations) <= result.trials


class TestSchemas:
    def test_instantiation_schema(self):
        assert check_law("t2", trials=50, sizes=(1, 2, 3)).ok

    def test_vacuous_domain_schema(self):
        assert check_law("t6", trials=50, sizes=(1, 2, 3)).ok

    def test_quantifier_exchange_schema(self):
        assert check_law("t12", trials=50, sizes=(1, 2, 3)).ok


class TestExhaustiveCounting:
    def test_counts_scale_with_symbols(self):
        # one unary predicate symbol at size 2 -> 4 subsets
        t5 = get_law("t5")
        base = exhaustive_binding_count(t5, 2)
        assert base == 4 ** len(t5.pred_symbols) * 16 ** len(t5.rel_symbols)

    def test_all_laws_enumerable_at_size_two(self):
        for law in registered_laws(include_negative_controls=True):
            assert exhaustive_binding_count(law, 2) <= 5000


class TestRunLaws:
    def test_default_run_excludes_controls(self):
        results = run_laws(trials=2, sizes=(1,))
        names = [r.law for r in results]
        assert set(names) == {law.name for law in registered_laws()}
        assert all(r.ok for r in results)

    def test_named_subset(self):
        results = run_laws(["thm3.3", "t7"], trials=5, sizes=(1, 2))
        assert [r.law for r in results] == ["thm3.3", "t7"]


# ---------------------------------------------------------------------------
# the set-level oracle of the triple and wp laws


def _ht(p, s, q):
    return check_total(p, s, q).holds


def _imp(a, b):
    return (not a) or b


def _domain_set(s):
    """All states with some successor."""
    return PredSet.from_indices(s.space.size, (i for i, m in enumerate(s.succ) if m))


def _range_set(s):
    """All states reachable as a final state of any pair."""
    mask = 0
    for m in s.succ:
        mask |= m
    return PredSet(s.space.size, mask)


def _has_bad_pair(s, q):
    """Some pair of s ends outside q."""
    return any(m & ~q.mask for m in s.succ)


E = PredSet.empty
F = PredSet.full
SET_LEVEL = {
    "thm3.1a": lambda b, sp: _imp(
        b["P"].subset_of(b["R"]) and _ht(b["R"], b["S"], b["Q"]), _ht(b["P"], b["S"], b["Q"])
    ),
    "thm3.1b": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["R"]) and b["R"].subset_of(b["Q"]), _ht(b["P"], b["S"], b["Q"])
    ),
    "thm3.1c": lambda b, sp: _imp(
        b["U"].subset_of(b["P"]) and b["Q"].subset_of(b["V"]) and _ht(b["P"], b["S"], b["Q"]),
        _ht(b["U"], b["S"], b["V"]),
    ),
    "thm3.2a": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], b["W"]),
        _ht(b["P"] | b["R"], b["S"], b["Q"] | b["W"]),
    ),
    "thm3.2b": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], b["W"]),
        _ht(b["P"] & b["R"], b["S"], b["Q"] & b["W"]),
    ),
    "cor3.1": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) and _ht(~b["P"], b["S"], b["W"]),
        _ht(F(sp.size), b["S"], b["Q"] | b["W"]),
    ),
    "thm3.3": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) or _ht(b["R"], b["S"], b["W"]),
        _ht(b["P"] & b["R"], b["S"], b["Q"] | b["W"]),
    ),
    "thm3.4a": lambda b, sp: _ht(b["P"] | b["R"], b["S"], b["Q"])
    == (_ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], b["Q"])),
    "thm3.4b": lambda b, sp: _ht(b["P"], b["S"], b["Q"] & b["R"])
    == (_ht(b["P"], b["S"], b["Q"]) and _ht(b["P"], b["S"], b["R"])),
    "thm3.4c": lambda b, sp: _ht(b["P"] | b["U"], b["S"], b["Q"] & b["W"])
    == (
        _ht(b["P"], b["S"], b["Q"])
        and _ht(b["U"], b["S"], b["W"])
        and _ht(b["P"], b["S"], b["W"])
        and _ht(b["U"], b["S"], b["Q"])
    ),
    "thm3.4d": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) or _ht(b["P"], b["S"], b["W"]),
        _ht(b["P"], b["S"], b["Q"] | b["W"]),
    ),
    "thm3.5": lambda b, sp: _ht(b["P"], b["S"], E(sp.size)) == b["P"].is_empty(),
    "thm3.6a": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) and _ht(b["R"], b["S"], ~b["Q"]), (b["P"] & b["R"]).is_empty()
    ),
    "thm3.6b": lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(b["P"], b["S"], ~b["Q"]))
    == b["P"].is_empty(),
    "thm3.6c": lambda b, sp: _imp(_ht(b["P"], b["S"], ~b["Q"]), not _ht(b["P"], b["S"], b["Q"]))
    == (not b["P"].is_empty()),
    "thm3.6d": lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(~b["P"], b["S"], b["Q"]))
    == (_domain_set(b["S"]).is_full() and _range_set(b["S"]).subset_of(b["Q"])),
    "thm3.6e": lambda b, sp: _imp(
        _has_bad_pair(b["S"], b["Q"]),
        _imp(_ht(~b["P"], b["S"], b["Q"]), not _ht(b["P"], b["S"], b["Q"])),
    ),
    "cor3.2": lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(b["P"], b["S"], ~b["Q"]))
    == b["P"].is_empty(),
    "cor3.3": lambda b, sp: _imp(_ht(b["P"], b["S"], ~b["Q"]), not _ht(b["P"], b["S"], b["Q"]))
    == (not b["P"].is_empty()),
    "thm5.2": lambda b, sp: wp(b["S"], E(sp.size)).is_empty(),
    "thm5.3": lambda b, sp: _imp(
        b["Q"].subset_of(b["R"]), wp(b["S"], b["Q"]).subset_of(wp(b["S"], b["R"]))
    ),
    "thm5.4": lambda b, sp: (wp(b["S"], b["Q"]) & wp(b["S"], b["R"])) == wp(b["S"], b["Q"] & b["R"]),
    "thm5.5": lambda b, sp: (wp(b["S"], b["Q"]) | wp(b["S"], b["R"])).subset_of(
        wp(b["S"], b["Q"] | b["R"])
    ),
    "thm5.6": lambda b, sp: (wp(b["S"], b["Q"]) & wp(b["S"], ~b["Q"])).is_empty(),
    "thm5.7": lambda b, sp: _ht(b["P"], b["S"], b["Q"]) == b["P"].subset_of(wp(b["S"], b["Q"])),
    "negative-control-1": lambda b, sp: _imp(
        _ht(b["P"], b["S"], b["Q"]) or _ht(b["R"], b["S"], b["W"]),
        _ht(b["P"] | b["R"], b["S"], b["Q"] | b["W"]),
    ),
    "negative-control-2": lambda b, sp: wp(b["S"], b["Q"] | b["R"]).subset_of(
        wp(b["S"], b["Q"]) | wp(b["S"], b["R"])
    ),
    "thm3.6d-variant": lambda b, sp: (_ht(b["P"], b["S"], b["Q"]) and _ht(~b["P"], b["S"], b["Q"]))
    == (_domain_set(b["S"]).is_full() and _domain_set(b["S"]).subset_of(b["Q"])),
    "thm3.6e-converse": lambda b, sp: _imp(
        _imp(_ht(~b["P"], b["S"], b["Q"]), not _ht(b["P"], b["S"], b["Q"])),
        _has_bad_pair(b["S"], b["Q"]),
    ),
}


def _set_level_bindings(law, sp):
    """Every binding at sizes 1-2; boundary plus 200 random ones above."""
    if sp.size <= 2:
        yield from _exhaustive_envs(law, sp)
        return
    yield from _boundary_envs(law, sp)
    for trial in range(200):
        yield _random_env(law, sp, 0xC0FFEE, trial)


class TestSetLevelOracle:
    def test_the_oracle_covers_every_triple_and_wp_law(self):
        assert len(SET_LEVEL) == 29 and set(SET_LEVEL) <= set(LAWS)
        # the rest are the quantifier schemas t1..t22 and their two variants
        assert all(re.match(r"t\d", name) for name in set(LAWS) - set(SET_LEVEL))

    @pytest.mark.parametrize("name", sorted(SET_LEVEL))
    def test_formula_agrees_with_the_set_level_check(self, name):
        law, oracle = get_law(name), SET_LEVEL[name]
        check = compile_sformula(law.formula)[1]
        verdicts = set()
        for size in (1, 2, 3, 4):
            sp = abstract_space(size)
            for env in _set_level_bindings(law, sp):
                want = oracle(env, sp)
                assert bool(check(env, size)) == want, (name, size, sorted(env.items()))
                verdicts.add(want)
        # the negative controls must be seen to fail somewhere
        assert verdicts == ({True, False} if law.expect_violations else {True})
