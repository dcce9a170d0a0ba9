import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalc.errors import (
    EmptyDomainError,
    IndexOutOfRangeError,
    SpaceTooLargeError,
    UnknownVariableError,
    ValueNotInDomainError,
)
from scalc.state_space import (
    Domain,
    VarUniverse,
    build_space,
    index_to_state,
    state_to_index,
)


def space_ab():
    return build_space(
        VarUniverse((("a", Domain("a", 5, 6)), ("b", Domain("b", 0, 1))))
    )


def space_a():
    return build_space(VarUniverse((("a", Domain("a", 5, 6)),)))


class TestDomain:
    def test_size_and_membership(self):
        d = Domain("a", 5, 7)
        assert d.size == 3
        assert [d.position(v) for v in (5, 6, 7)] == [0, 1, 2]
        assert Domain("x", -2, -2).size == 1

    def test_position_missing_value(self):
        for value in (4, 7):
            with pytest.raises(ValueNotInDomainError):
                Domain("a", 5, 6).position(value)

    def test_empty_and_reversed_ends(self):
        assert Domain("a", 5, 4).size == 0
        with pytest.raises(ValueError):
            Domain("a", 5, 3)

    def test_64_bit_bound(self):
        assert Domain("a", -(1 << 63), (1 << 63) - 1).size == 1 << 64
        with pytest.raises(ValueError):
            Domain("a", 0, 1 << 63)
        with pytest.raises(ValueError):
            Domain("a", -(1 << 63) - 1, 0)


class TestBuildSpace:
    def test_size_is_product(self):
        assert space_ab().size == 4
        assert space_a().size == 2

    def test_empty_domain_rejected(self):
        u = VarUniverse((("a", Domain("a", 0, -1)),))
        with pytest.raises(EmptyDomainError):
            build_space(u)

    def test_too_large_rejected(self):
        u = VarUniverse(
            (
                ("a", Domain("a", 0, 99)),
                ("b", Domain("b", 0, 99)),
            )
        )
        with pytest.raises(SpaceTooLargeError):
            build_space(u, max_states=9999)
        build_space(u, max_states=10000)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VarUniverse((("a", Domain("a", 0, 0)), ("a", Domain("a", 1, 1))))


class TestIndexStateBijection:
    def test_first_state(self):
        s = index_to_state(space_a(), 0)
        assert s.as_dict() == {"a": 5}

    def test_row_major_last_var_fastest(self):
        sp = space_ab()
        assert index_to_state(sp, 3).as_dict() == {"a": 6, "b": 1}
        assert index_to_state(sp, 1).as_dict() == {"a": 5, "b": 1}

    def test_state_to_index(self):
        sp = space_ab()
        assert state_to_index(sp, index_to_state(sp, 0)) == 0
        assert state_to_index(sp, index_to_state(sp, 3)) == 3

    def test_state_to_index_rejects_foreign_value(self):
        sp = space_a()
        bad = index_to_state(sp, 0).updated("a", 7)
        with pytest.raises(ValueNotInDomainError):
            state_to_index(sp, bad)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            index_to_state(space_a(), 2)
        with pytest.raises(IndexOutOfRangeError):
            index_to_state(space_a(), -1)

    def test_round_trip_exhaustive(self):
        u = VarUniverse(
            (
                ("x", Domain("x", -3, -1)),
                ("y", Domain("y", 1, 2)),
                ("z", Domain("z", 5, 8)),
            )
        )
        sp = build_space(u)
        assert sp.size == 24
        seen = set()
        for k in range(sp.size):
            s = index_to_state(sp, k)
            assert state_to_index(sp, s) == k
            seen.add(tuple(s.values))
        assert len(seen) == sp.size

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 4)), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_random_universes(self, intervals, rnd):
        universe = VarUniverse(
            tuple(
                (f"v{i}", Domain(f"v{i}", low, low + size - 1))
                for i, (low, size) in enumerate(intervals)
            )
        )
        sp = build_space(universe)
        for _ in range(10):
            k = rnd.randrange(sp.size)
            assert state_to_index(sp, index_to_state(sp, k)) == k


class TestState:
    def test_value_lookup(self):
        sp = space_ab()
        s = index_to_state(sp, 2)
        assert s.value_of("a") == 6
        assert s["b"] == 0
        with pytest.raises(UnknownVariableError):
            s.value_of("zz")

    def test_updated_replaces_one_variable(self):
        sp = space_ab()
        s = index_to_state(sp, 0)
        t = s.updated("b", 1)
        assert t.as_dict() == {"a": 5, "b": 1}
        assert s.as_dict() == {"a": 5, "b": 0}

    def test_enumeration_order_is_stable(self):
        sp = space_ab()
        order = [index_to_state(sp, k).as_dict() for k in range(sp.size)]
        assert order == [
            {"a": 5, "b": 0},
            {"a": 5, "b": 1},
            {"a": 6, "b": 0},
            {"a": 6, "b": 1},
        ]
