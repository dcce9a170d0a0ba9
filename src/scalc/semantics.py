"""Relational semantics of statements over a finite state space.

A statement denotes a relation S between initial and final states.
`successors` defines it one initial state at a time, walking the program
forward from that state only.  Key conventions:

* An assignment whose right-hand side is UNDEFINED (64-bit overflow) or
  falls outside the target variable's domain has *no* successor from that
  initial state.  Absence of successors is how abortion shows up.
* A declaration is havoc: every value of the variable's domain is a
  successor, everything else unchanged.
* A loop relates x to y when some finite guarded chain of body steps leads
  from x to y with the guard false at y; a state that falsifies the guard
  immediately relates to itself (zero iterations).  States from which no
  such chain exists (divergence) get no successors.

Assignments and guards are compiled once to functions of the state index
(`predicates.compile_arith`/`compile_pred`).  `wp` and `dump-relation` read
the rows one state at a time and keep only the tables that `successors`
names; each loop's table spans the whole space, even when `verify` reads
the rows of a few states.  `denote` tabulates them for every state as a
`Relation`, one bitmask of finals per initial index, for tests and library
users; the law suite builds its relations directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterator

from .predicates import UNDEFINED, PredSet, compile_arith, compile_pred
from .state_space import StateSpace
from .syntax import (
    Assign,
    Decl,
    IfThenElse,
    Nop,
    Seq,
    Stmt,
    While,
)

_NONE, _MANY, _UNSOLVED = -1, -2, -3  # loop table entries, not states


@dataclass(frozen=True)
class Relation:
    """A binary relation on state indices: succ[i] is a bitmask of finals."""

    space: StateSpace
    succ: tuple[int, ...]

    def __post_init__(self):
        if len(self.succ) != self.space.size:
            raise ValueError("successor table length differs from space size")
        for m in self.succ:
            if m >> self.space.size:
                raise ValueError("successor mask has bits outside the space")

    def has_pair(self, i: int, j: int) -> bool:
        return bool(self.succ[i] >> j & 1)

    def row(self, i: int) -> tuple[int, ...]:
        """The finals of initial state i, in increasing order."""
        return tuple(PredSet(self.space.size, self.succ[i]).indices())

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All (initial, final) pairs, ordered by initial then final index."""
        for i in range(self.space.size):
            for j in self.row(i):
                yield i, j

    def pair_count(self) -> int:
        return sum(m.bit_count() for m in self.succ)


def empty_relation(space: StateSpace) -> Relation:
    return Relation(space, (0,) * space.size)


def identity_relation(space: StateSpace) -> Relation:
    return Relation(space, tuple(1 << i for i in range(space.size)))


def full_relation(space: StateSpace) -> Relation:
    full = (1 << space.size) - 1
    return Relation(space, (full,) * space.size)


def relation_from_pairs(space: StateSpace, pairs) -> Relation:
    """Build a relation from explicit (initial, final) index pairs."""
    succ = [0] * space.size
    for i, j in pairs:
        if not 0 <= i < space.size or not 0 <= j < space.size:
            raise ValueError(f"pair ({i}, {j}) outside the space")
        succ[i] |= 1 << j
    return Relation(space, tuple(succ))


def denote(stmt: Stmt, space: StateSpace) -> Relation:
    """The whole relation of a statement: the rows of `successors` for
    every state of the space."""
    finals_of = successors(stmt, space)
    succ = []
    for i in range(space.size):
        m = 0
        for j in finals_of(i):
            m |= 1 << j
        succ.append(m)
    return Relation(space, tuple(succ))


def successors(stmt: Stmt, space: StateSpace) -> Callable[[int], tuple[int, ...]]:
    """The semantics of a statement, row by row: a function from an initial
    state index to its final indices in increasing order.

    Nop keeps the state; `var = expr` moves to the state where `var` holds
    the value of `expr`, or nowhere when that value is UNDEFINED or outside
    the domain of `var`; a declaration of `var` moves to every state that
    differs at most in `var`; a branch takes the rows of the arm its guard
    selects; a sequence runs each part from every final of the part before;
    a loop takes the least finals described in the module docstring (see
    `_solve_loop`).

    Each node is evaluated only on the states that reach it.  Two kinds of
    table outlive a call.  A declaration and the statements after it, up to
    the next declaration of the sequence, keep their finals by base: the
    state with the declared variable's digit cleared.  A loop keeps 8 bytes
    a state, and a tuple for each head with two or more finals.
    """
    def slot(var: str):
        pos = space.universe.position(var)
        return space.universe.vars[pos][1], space.strides[pos]

    def after_decl(decl: Decl, rest: list) -> Callable[[int], tuple[int, ...]]:
        dom, stride = slot(decl.var)

        def havoc(i: int) -> tuple[int, ...]:
            base = i - i // stride % dom.size * stride
            return tuple(range(base, base + dom.size * stride, stride))

        if not rest:
            return havoc
        memo: dict[int, tuple[int, ...]] = {}

        def havoc_then_rest(i: int) -> tuple[int, ...]:
            # `rest` holds no declaration, so these calls never nest
            base = i - i // stride % dom.size * stride
            out = memo.get(base)
            if out is None:
                out = memo[base] = _run(rest, havoc(base))
            return out

        return havoc_then_rest

    def build(s: Stmt) -> Callable[[int], tuple[int, ...]]:
        if isinstance(s, Nop):
            return lambda i: (i,)
        if isinstance(s, Decl):
            return after_decl(s, [])
        if isinstance(s, Assign):
            dom, stride = slot(s.var)
            value_at = compile_arith(s.expr, space)
            low, size = dom.low, dom.size

            def assign(i: int) -> tuple[int, ...]:
                value = value_at(i)
                if value is UNDEFINED or not 0 <= (k := value - low) < size:
                    return ()
                return (i + (k - i // stride % size) * stride,)

            return assign
        if isinstance(s, Seq):
            # each declaration starts a group of its own (see `after_decl`)
            groups: list[list] = [[]]
            for part in s.parts:
                if isinstance(part, Decl):
                    groups.append([part])
                else:
                    groups[-1].append(build(part))
            parts = groups[0] + [after_decl(decl, rest) for decl, *rest in groups[1:]]
            return lambda i: _run(parts, (i,))
        if isinstance(s, IfThenElse):
            holds = compile_pred(s.cond, space)
            then, orelse = build(s.then_branch), build(s.else_branch)
            return lambda i: then(i) if holds(i) else orelse(i)
        if isinstance(s, While):
            body, guard = build(s.body), compile_pred(s.cond, space)
            table = array("q", [_UNSOLVED]) * space.size
            many: dict[int, tuple[int, ...]] = {}

            def loop(i: int) -> tuple[int, ...]:
                if table[i] == _UNSOLVED:
                    _solve_loop(i, guard, body, table, many)
                j = table[i]
                return (j,) if j >= 0 else many.get(i, ())

            return loop
        raise TypeError(f"not a statement: {s!r}")

    return build(stmt)


def _run(parts: list, here: tuple[int, ...]) -> tuple[int, ...]:
    """The finals of running `parts` in order from the states `here`."""
    for part in parts:
        if len(here) == 1:
            here = part(here[0])
        else:
            here = tuple(sorted(set().union(*map(part, here))))
    return here


def _solve_loop(
    start: int,
    guard: Callable[[int], bool],
    body: Callable[[int], tuple[int, ...]],
    table: array,
    many: dict[int, tuple[int, ...]],
):
    """Solve every loop-head state that is reachable from `start` and still
    _UNSOLVED in `table`: write its one final there, or _NONE, or _MANY
    with the finals in `many`.

    The finals of a head h are {h} where the guard is false at h, and
    otherwise the union of the finals of h's body successors: the least
    such sets, found by a backward worklist from the guard-false exits.  A
    cycle that no exit is reachable from keeps the empty set: divergence.
    """
    finals: dict[int, set[int]] = {}
    preds: dict[int, list[int]] = {}
    work = []
    stack = [start]
    while stack:
        h = stack.pop()
        if h in finals or table[h] != _UNSOLVED:
            continue
        if not guard(h):
            finals[h] = {h}
            work.append(h)
            continue
        out = finals[h] = set()
        for k in body(h):
            j = table[k]
            if j == _UNSOLVED:
                preds.setdefault(k, []).append(h)
                stack.append(k)
            elif j >= 0:
                out.add(j)
            elif j == _MANY:
                out.update(many[k])
        if out:
            work.append(h)
    while work:
        k = work.pop()
        for h in preds.get(k, ()):
            out = finals[h]
            before = len(out)
            out |= finals[k]
            if len(out) != before:
                work.append(h)
    for h, out in finals.items():
        if len(out) > 1:
            many[h] = tuple(sorted(out))
        table[h] = _MANY if len(out) > 1 else out.pop() if out else _NONE


__all__ = [
    "Relation",
    "empty_relation",
    "identity_relation",
    "full_relation",
    "denote",
    "relation_from_pairs",
    "successors",
]
