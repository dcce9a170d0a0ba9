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
the rows one state at a time.  `denote` tabulates them for every state as a
`Relation`, one bitmask of finals per initial index, for tests and library
users; the law suite builds its relations directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .predicates import UNDEFINED, compile_arith, compile_pred
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

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All (initial, final) pairs, ordered by initial then final index."""
        for i, m in enumerate(self.succ):
            while m:
                low = m & -m
                yield i, low.bit_length() - 1
                m ^= low

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
    selects; a sequence takes the finals of the second part from every
    final of the first; a loop takes the least finals described in the
    module docstring (see `_solve_loop`).

    Each node is evaluated only on the states that reach it.  Assignments,
    branches and loops remember their answers by state index for as long
    as the returned function lives, so states that several paths reach are
    evaluated once.
    """
    def slot(var: str):
        pos = space.universe.position(var)
        return space.universe.vars[pos][1], space.strides[pos]

    def build(s: Stmt) -> Callable[[int], tuple[int, ...]]:
        if isinstance(s, Nop):
            return lambda i: (i,)
        if isinstance(s, Decl):
            dom, stride = slot(s.var)

            def havoc(i: int) -> tuple[int, ...]:
                base = i - i // stride % dom.size * stride
                return tuple(range(base, base + dom.size * stride, stride))

            return havoc
        if isinstance(s, Assign):
            dom, stride = slot(s.var)
            value_at = compile_arith(s.expr, space)
            low, size = dom.values[0], dom.size
            # strictly increasing values that span size - 1 are `int a..b`
            contiguous = dom.values[-1] - low == size - 1

            def assign(i: int) -> tuple[int, ...]:
                value = value_at(i)
                if value is UNDEFINED:
                    return ()
                if contiguous:
                    k = value - low
                    if not 0 <= k < size:
                        return ()
                elif value in dom:
                    k = dom.position(value)
                else:
                    return ()
                return (i + (k - i // stride % size) * stride,)

            return _memoised(assign)
        if isinstance(s, Seq):
            # the parts of a sequence run in a loop, not nested calls, so
            # that a long program does not exhaust the interpreter's stack
            parts = []
            while isinstance(s, Seq):
                parts.append(build(s.first))
                s = s.second
            parts.append(build(s))

            def seq(i: int) -> tuple[int, ...]:
                here = (i,)
                for part in parts:
                    if len(here) == 1:
                        here = part(here[0])
                    else:
                        here = tuple(sorted(set().union(*map(part, here))))
                return here

            return seq
        if isinstance(s, IfThenElse):
            holds = compile_pred(s.cond, space)
            then, orelse = build(s.then_branch), build(s.else_branch)
            return _memoised(lambda i: then(i) if holds(i) else orelse(i))
        if isinstance(s, While):
            body, guard = build(s.body), compile_pred(s.cond, space)
            solved: dict[int, tuple[int, ...]] = {}

            def loop(i: int) -> tuple[int, ...]:
                if i not in solved:
                    _solve_loop(i, guard, body, solved)
                return solved[i]

            return loop
        raise TypeError(f"not a statement: {s!r}")

    return build(stmt)


def _memoised(fn: Callable[[int], tuple[int, ...]]) -> Callable[[int], tuple[int, ...]]:
    memo: dict[int, tuple[int, ...]] = {}

    def lookup(i: int) -> tuple[int, ...]:
        out = memo.get(i)
        if out is None:
            out = memo[i] = fn(i)
        return out

    return lookup


def _solve_loop(
    start: int,
    guard: Callable[[int], bool],
    body: Callable[[int], tuple[int, ...]],
    solved: dict[int, tuple[int, ...]],
):
    """Add to `solved` the loop's finals from every loop-head state that is
    reachable from `start` and not yet in `solved`.

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
        if h in finals or h in solved:
            continue
        if not guard(h):
            finals[h] = {h}
            work.append(h)
            continue
        out = finals[h] = set()
        for k in body(h):
            if k in solved:
                out.update(solved[k])
            else:
                preds.setdefault(k, []).append(h)
                stack.append(k)
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
        solved[h] = tuple(sorted(out))


__all__ = [
    "Relation",
    "empty_relation",
    "identity_relation",
    "full_relation",
    "denote",
    "relation_from_pairs",
    "successors",
]
