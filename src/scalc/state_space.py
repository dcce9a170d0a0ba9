"""Finite state spaces.

A state space is the cartesian product of per-variable finite integer
domains.  States are total valuations.  The whole package works with state
*indices* wherever possible; the bijection between indices and valuations is
row-major with the last-declared variable varying fastest.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (
    EmptyDomainError,
    IndexOutOfRangeError,
    SpaceTooLargeError,
    UnknownVariableError,
    ValueNotInDomainError,
)

DEFAULT_MAX_STATES = 1 << 24


@dataclass(frozen=True)
class Domain:
    """A finite, strictly increasing tuple of 64-bit signed integers."""

    name: str
    values: tuple[int, ...]

    def __post_init__(self):
        for v in self.values:
            if not -(1 << 63) <= v < (1 << 63):
                raise ValueError(f"domain '{self.name}': {v} exceeds 64-bit range")
        for a, b in zip(self.values, self.values[1:]):
            if a >= b:
                raise ValueError(f"domain '{self.name}': values must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.values)

    def __contains__(self, value: int) -> bool:
        i = bisect.bisect_left(self.values, value)
        return i < len(self.values) and self.values[i] == value

    def position(self, value: int) -> int:
        """Index of `value` within the domain; raises if absent."""
        i = bisect.bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            return i
        raise ValueNotInDomainError(self.name, value)


def int_range_domain(name: str, low: int, high: int) -> Domain:
    """Domain of all integers in [low, high]."""
    return Domain(name, tuple(range(low, high + 1)))


@dataclass(frozen=True)
class VarUniverse:
    """An ordered list of (variable name, domain) pairs. Order is declaration order."""

    vars: tuple[tuple[str, Domain], ...]

    def __post_init__(self):
        names = [n for n, _ in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable name in universe")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vars)

    def position(self, name: str) -> int:
        for i, (n, _) in enumerate(self.vars):
            if n == name:
                return i
        raise UnknownVariableError(name)

    def domain(self, name: str) -> Domain:
        return self.vars[self.position(name)][1]

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.vars)

    def __len__(self) -> int:
        return len(self.vars)


@dataclass(frozen=True)
class State:
    """A total valuation: one value per universe variable, in universe order."""

    universe: VarUniverse
    values: tuple[int, ...]

    def value_of(self, name: str) -> int:
        return self.values[self.universe.position(name)]

    def __getitem__(self, name: str) -> int:
        return self.value_of(name)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.universe.names, self.values))

    def updated(self, name: str, value: int) -> "State":
        """Copy of this state with one variable rebound (frame preserved)."""
        i = self.universe.position(name)
        return State(self.universe, self.values[:i] + (value,) + self.values[i + 1 :])


@dataclass(frozen=True)
class StateSpace:
    """The indexed product of a universe's domains.

    strides[i] is the index weight of variable i: the last variable has
    stride 1, and index = sum(position_in_domain(v_i) * strides[i]).
    An empty universe yields the one-point space (size 1).
    """

    universe: VarUniverse
    size: int
    strides: tuple[int, ...]


def build_space(universe: VarUniverse, max_states: int = DEFAULT_MAX_STATES) -> StateSpace:
    """Validate the universe and precompute index strides.

    Raises EmptyDomainError if any variable has no values, and
    SpaceTooLargeError if the product of domain sizes exceeds max_states.
    """
    size = 1
    for name, dom in universe.vars:
        if dom.size == 0:
            raise EmptyDomainError(name)
        size *= dom.size
    if size > max_states:
        raise SpaceTooLargeError(size, max_states)
    strides = []
    acc = 1
    for _, dom in reversed(universe.vars):
        strides.append(acc)
        acc *= dom.size
    strides.reverse()
    return StateSpace(universe, size, tuple(strides))


def index_to_state(space: StateSpace, index: int) -> State:
    if not 0 <= index < space.size:
        raise IndexOutOfRangeError(index, space.size)
    values = []
    rem = index
    for (_, dom), stride in zip(space.universe.vars, space.strides):
        pos, rem = divmod(rem, stride)
        values.append(dom.values[pos])
    return State(space.universe, tuple(values))


def state_to_index(space: StateSpace, state: State) -> int:
    if state.universe != space.universe:
        raise ValueError("state belongs to a different universe")
    index = 0
    for (_, dom), stride, value in zip(space.universe.vars, space.strides, state.values):
        index += dom.position(value) * stride
    return index
