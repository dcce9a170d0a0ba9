"""Relational denotations of statements over a finite state space.

A statement denotes a relation S between initial and final states.  The
representation keeps, for every initial state index, a bitmask over final
state indices.  Key conventions:

* An assignment whose right-hand side is UNDEFINED (64-bit overflow) or
  falls outside the target variable's domain contributes *no* pair for that
  initial state.  Absence of successors is how abortion shows up.
* A declaration is havoc: every value of the variable's domain is a
  successor, everything else unchanged.
* A loop relates x to y when some finite guarded chain of body steps leads
  from x to y with the guard false at y; a state that falsifies the guard
  immediately relates to itself (zero iterations).  States from which no
  such chain exists (divergence) get no successors.

`denote` builds the whole relation.  `successors` gives the same rows one
initial state at a time, walking the program forward from that state only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import SpaceMismatchError
from .predicates import (
    ArithExpr,
    PredExpr,
    PredSet,
    UNDEFINED,
    eval_arith,
    eval_pred,
    pred_to_set,
)
from .state_space import State, StateSpace, index_to_state
from .syntax import (
    Assign,
    Decl,
    IfThen,
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

    def successors_mask(self, i: int) -> int:
        return self.succ[i]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All (initial, final) pairs, ordered by initial then final index."""
        for i, m in enumerate(self.succ):
            while m:
                low = m & -m
                yield i, low.bit_length() - 1
                m ^= low

    def pair_count(self) -> int:
        return sum(m.bit_count() for m in self.succ)

    def domain_set(self) -> PredSet:
        """Indices that have at least one successor."""
        mask = 0
        for i, m in enumerate(self.succ):
            if m:
                mask |= 1 << i
        return PredSet(self.space.size, mask)


def _require_same_space(a: Relation, b: Relation):
    if a.space != b.space:
        raise SpaceMismatchError("relations are over different state spaces")


def empty_relation(space: StateSpace) -> Relation:
    return Relation(space, (0,) * space.size)


def identity_relation(space: StateSpace) -> Relation:
    return Relation(space, tuple(1 << i for i in range(space.size)))


def full_relation(space: StateSpace) -> Relation:
    full = (1 << space.size) - 1
    return Relation(space, (full,) * space.size)


def denote_nop(space: StateSpace) -> Relation:
    return identity_relation(space)


def _assign_step(
    var: str, expr: ArithExpr, space: StateSpace, state_at: Callable[[int], State]
) -> Callable[[int], Optional[int]]:
    """The successor index of `var = expr` from a state index, or None
    (stuck) where the value is UNDEFINED or outside the variable's domain."""
    pos = space.universe.position(var)
    dom = space.universe.vars[pos][1]
    stride = space.strides[pos]

    def step(i: int) -> Optional[int]:
        value = eval_arith(expr, state_at(i))
        if value is UNDEFINED or value not in dom:
            return None
        return i + (dom.position(value) - i // stride % dom.size) * stride

    return step


def _decl_step(var: str, space: StateSpace) -> Callable[[int], range]:
    """The havoc successors of a state index, in increasing order: every
    value of `var`, all other variables unchanged."""
    pos = space.universe.position(var)
    stride = space.strides[pos]
    dsize = space.universe.vars[pos][1].size

    def step(i: int) -> range:
        base = i - i // stride % dsize * stride
        return range(base, base + dsize * stride, stride)

    return step


def denote_assign(var: str, expr: ArithExpr, space: StateSpace) -> Relation:
    step = _assign_step(var, expr, space, lambda i: index_to_state(space, i))
    succ = []
    for i in range(space.size):
        j = step(i)
        succ.append(0 if j is None else 1 << j)
    return Relation(space, tuple(succ))


def denote_decl(var: str, space: StateSpace) -> Relation:
    step = _decl_step(var, space)
    succ = []
    for i in range(space.size):
        mask = 0
        for j in step(i):
            mask |= 1 << j
        succ.append(mask)
    return Relation(space, tuple(succ))


def denote_seq(r1: Relation, r2: Relation) -> Relation:
    """Relational composition: first r1, then r2."""
    _require_same_space(r1, r2)
    succ = []
    for m in r1.succ:
        out = 0
        while m:
            low = m & -m
            out |= r2.succ[low.bit_length() - 1]
            m ^= low
        succ.append(out)
    return Relation(r1.space, tuple(succ))


def denote_ite(b: PredExpr, r1: Relation, r2: Relation) -> Relation:
    _require_same_space(r1, r2)
    succ = list(r2.succ)
    for i in pred_to_set(b, r1.space).indices():
        succ[i] = r1.succ[i]
    return Relation(r1.space, tuple(succ))


def denote_if(b: PredExpr, r: Relation) -> Relation:
    succ = [1 << i for i in range(r.space.size)]
    for i in pred_to_set(b, r.space).indices():
        succ[i] = r.succ[i]
    return Relation(r.space, tuple(succ))


def denote_while(b: PredExpr, body: Relation) -> Relation:
    """Least fixpoint of the guarded chain construction.

    succ[i] starts as {i} where the guard is false and grows by one body
    step per pass; a pass that changes nothing means every finite exit
    chain has been accounted for.
    """
    space = body.space
    heads = list(pred_to_set(b, space).indices())
    succ = [1 << i for i in range(space.size)]
    for i in heads:
        succ[i] = 0
    changed = True
    while changed:
        changed = False
        for i in heads:
            m = body.succ[i]
            out = 0
            while m:
                low = m & -m
                out |= succ[low.bit_length() - 1]
                m ^= low
            if out | succ[i] != succ[i]:
                succ[i] |= out
                changed = True
    return Relation(space, tuple(succ))


def denote(stmt: Stmt, space: StateSpace) -> Relation:
    """Denotation of a whole statement."""
    if isinstance(stmt, Nop):
        return denote_nop(space)
    if isinstance(stmt, Decl):
        return denote_decl(stmt.var, space)
    if isinstance(stmt, Assign):
        return denote_assign(stmt.var, stmt.expr, space)
    if isinstance(stmt, Seq):
        return denote_seq(denote(stmt.first, space), denote(stmt.second, space))
    if isinstance(stmt, IfThenElse):
        return denote_ite(
            stmt.cond,
            denote(stmt.then_branch, space),
            denote(stmt.else_branch, space),
        )
    if isinstance(stmt, IfThen):
        return denote_if(stmt.cond, denote(stmt.body, space))
    if isinstance(stmt, While):
        return denote_while(stmt.cond, denote(stmt.body, space))
    raise TypeError(f"not a statement: {stmt!r}")


def relation_from_pairs(space: StateSpace, pairs) -> Relation:
    """Build a relation from explicit (initial, final) index pairs."""
    succ = [0] * space.size
    for i, j in pairs:
        if not 0 <= i < space.size or not 0 <= j < space.size:
            raise ValueError(f"pair ({i}, {j}) outside the space")
        succ[i] |= 1 << j
    return Relation(space, tuple(succ))


def successors(stmt: Stmt, space: StateSpace) -> Callable[[int], tuple[int, ...]]:
    """The forward semantics of a statement: a function from an initial
    state index to its final indices in increasing order, the members of
    `denote(stmt, space).successors_mask(i)`.

    Each node is evaluated only on the states that reach it.  Assignments,
    branches and loops remember their answers by state index for as long
    as the returned function lives, so states that several paths reach are
    evaluated once.  A loop is solved on the loop-head states reachable
    from the state it is asked about (see `_solve_loop`).
    """
    states: dict[int, State] = {}

    def state_at(i: int) -> State:
        state = states.get(i)
        if state is None:
            state = states[i] = index_to_state(space, i)
        return state

    def branch(cond: PredExpr, then, orelse) -> Callable[[int], tuple[int, ...]]:
        return _memoised(lambda i: then(i) if eval_pred(cond, state_at(i)) else orelse(i))

    def build(s: Stmt) -> Callable[[int], tuple[int, ...]]:
        if isinstance(s, Nop):
            return lambda i: (i,)
        if isinstance(s, Decl):
            step = _decl_step(s.var, space)
            return lambda i: tuple(step(i))
        if isinstance(s, Assign):
            step = _assign_step(s.var, s.expr, space, state_at)
            return _memoised(lambda i: () if (j := step(i)) is None else (j,))
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
            return branch(s.cond, build(s.then_branch), build(s.else_branch))
        if isinstance(s, IfThen):
            return branch(s.cond, build(s.body), build(Nop()))
        if isinstance(s, While):
            body, cond = build(s.body), s.cond
            solved: dict[int, tuple[int, ...]] = {}

            def loop(i: int) -> tuple[int, ...]:
                if i not in solved:
                    _solve_loop(i, lambda h: eval_pred(cond, state_at(h)), body, solved)
                return solved[i]

            return loop
        raise TypeError(f"not a statement: {s!r}")

    top = build(stmt)

    def from_state(i: int) -> tuple[int, ...]:
        # valuations are shared by the nodes that one initial state's
        # successors pass through, and then dropped: kept for every state
        # of a large space they would outweigh the memo tables
        try:
            return top(i)
        finally:
            states.clear()

    return from_state


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
    "denote_nop",
    "denote_assign",
    "denote_decl",
    "denote_seq",
    "denote_ite",
    "denote_if",
    "denote_while",
    "denote",
    "relation_from_pairs",
    "successors",
]
