"""The law suite checked here at reduced sizes/trials; the full-strength run
(default sizes and trial counts) lives in the acceptance tests."""

import pytest

from scalc.errors import ArityMismatchError, UnboundStateVariableError, UnknownLawError
from scalc.formulas import FAnd, Forall, PredApp, RelApp
from scalc.laws import (
    LAWS,
    T_TEMPLATES,
    _register_template,
    abstract_space,
    check_law,
    exhaustive_binding_count,
    get_law,
    random_predset,
    random_relation,
    registered_laws,
    run_laws,
)
from scalc.state_space import Domain, StateSpace, VarUniverse

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

    def test_t_schema_catalog_is_separate(self):
        assert "t1" in T_TEMPLATES and "t22" in T_TEMPLATES
        assert "thm3.5" in LAWS and "thm3.5" not in T_TEMPLATES

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
            _register_template("bad-template", "not a law", template)
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

    def test_violation_instances_replay(self):
        result = check_law("negative-control-1", trials=0, sizes=(1, 2))
        law = get_law("negative-control-1")
        for inst in result.violations[:5]:
            env = dict(inst.bindings)
            assert not law.checker(env, abstract_space(inst.size))


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
