"""Total and partial correctness checks, and extensional weakest preconditions.

A triple (P, S, Q) is totally correct when every P-state has at least one
successor and all of its successors satisfy Q.  It is partially correct when
every successor of every P-state satisfies Q (termination not required).
Both are decided by direct enumeration, scanning initial states in index
order so the reported counterexample is always the one with the smallest
initial index (ties broken by smallest final index).

`check_total` and `check_partial` read a denoted relation.  `verify` needs
no relation: it walks the program forward from the precondition's states
only, and evaluates the postcondition only on the finals it reaches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import SpaceMismatchError
from .predicates import PredExpr, PredSet, eval_pred, pred_to_set
from .semantics import Relation, denote, successors
from .state_space import State, StateSpace, index_to_state
from .syntax import Stmt

NO_SUCCESSOR = "NoSuccessor"
BAD_SUCCESSOR = "BadSuccessor"
PARTIAL_VIOLATION = "PartialViolation"


@dataclass(frozen=True)
class Counterexample:
    kind: str
    initial: State
    witness_final: Optional[State]
    initial_index: int
    final_index: Optional[int]


@dataclass(frozen=True)
class CheckStats:
    states_checked: int
    pairs_checked: int
    wall_time_s: float


@dataclass(frozen=True)
class Verdict:
    holds: bool
    counterexample: Optional[Counterexample]
    stats: CheckStats


def _require_compatible(p: PredSet, s: Relation, q: PredSet):
    if p.size != s.space.size or q.size != s.space.size:
        raise SpaceMismatchError(
            f"precondition over {p.size} states, relation over {s.space.size}, "
            f"postcondition over {q.size}"
        )


def check_total(p: PredSet, s: Relation, q: PredSet) -> Verdict:
    """Every P-state must have a successor, and only Q-successors."""
    _require_compatible(p, s, q)
    start = time.perf_counter()
    states = 0
    pairs = 0
    cx = None
    for i in p.indices():
        states += 1
        m = s.succ[i]
        pairs += m.bit_count()
        if m == 0:
            cx = Counterexample(NO_SUCCESSOR, index_to_state(s.space, i), None, i, None)
            break
        bad = m & ~q.mask
        if bad:
            j = (bad & -bad).bit_length() - 1
            cx = Counterexample(
                BAD_SUCCESSOR, index_to_state(s.space, i), index_to_state(s.space, j), i, j
            )
            break
    stats = CheckStats(states, pairs, time.perf_counter() - start)
    return Verdict(cx is None, cx, stats)


def check_partial(p: PredSet, s: Relation, q: PredSet) -> Verdict:
    """Successors of P-states must satisfy Q; successor-free states are fine."""
    _require_compatible(p, s, q)
    start = time.perf_counter()
    states = 0
    pairs = 0
    cx = None
    for i in p.indices():
        states += 1
        m = s.succ[i]
        pairs += m.bit_count()
        bad = m & ~q.mask
        if bad:
            j = (bad & -bad).bit_length() - 1
            cx = Counterexample(
                PARTIAL_VIOLATION, index_to_state(s.space, i), index_to_state(s.space, j), i, j
            )
            break
    stats = CheckStats(states, pairs, time.perf_counter() - start)
    return Verdict(cx is None, cx, stats)


def wp(s: Relation, q: PredSet) -> PredSet:
    """Largest P with (P, s, q) totally correct: states with some successor
    and only q-successors."""
    if q.size != s.space.size:
        raise SpaceMismatchError(
            f"postcondition over {q.size} states, relation over {s.space.size}"
        )
    mask = 0
    for i, m in enumerate(s.succ):
        if m and m & ~q.mask == 0:
            mask |= 1 << i
    return PredSet(q.size, mask)


@dataclass(frozen=True)
class Report:
    """Everything a verification run produced, JSON-ready."""

    mode: str
    verdict: Verdict
    space: StateSpace
    pre: PredExpr
    post: PredExpr
    program: Stmt

    @cached_property
    def wp_size(self) -> int:
        """Number of states in wp(program, post).  It denotes the whole
        program over the whole space, so it is computed only when read."""
        return wp(denote(self.program, self.space), pred_to_set(self.post, self.space)).count()

    def to_json_dict(self) -> dict:
        cx = self.verdict.counterexample
        if cx is None:
            cx_json = None
        else:
            cx_json = {
                "kind": cx.kind,
                "initial": cx.initial.as_dict(),
                "final": cx.witness_final.as_dict() if cx.witness_final is not None else None,
            }
        return {
            "mode": self.mode,
            "holds": self.verdict.holds,
            "counterexample": cx_json,
            "stats": {
                "states_checked": self.verdict.stats.states_checked,
                "pairs_checked": self.verdict.stats.pairs_checked,
            },
        }


def verify(program: Stmt, pre: PredExpr, post: PredExpr, mode: str, space: StateSpace) -> Report:
    """Decide the triple in the requested mode, with the same verdict,
    counterexample and counts as `check_total`/`check_partial` over
    `denote(program, space)`, exploring only from the precondition's states."""
    if mode not in ("total", "partial"):
        raise ValueError(f"mode must be 'total' or 'partial', got {mode!r}")
    p = pred_to_set(pre, space)
    finals_of = successors(program, space)
    good: dict[int, bool] = {}  # post at each final reached so far
    start = time.perf_counter()
    states = 0
    pairs = 0
    cx = None
    for i in p.indices():
        states += 1
        finals = finals_of(i)
        pairs += len(finals)
        if not finals and mode == "total":
            cx = Counterexample(NO_SUCCESSOR, index_to_state(space, i), None, i, None)
            break
        for j in finals:
            ok = good.get(j)
            if ok is None:
                ok = good[j] = eval_pred(post, index_to_state(space, j))
            if not ok:
                kind = BAD_SUCCESSOR if mode == "total" else PARTIAL_VIOLATION
                cx = Counterexample(kind, index_to_state(space, i), index_to_state(space, j), i, j)
                break
        if cx is not None:
            break
    stats = CheckStats(states, pairs, time.perf_counter() - start)
    return Report(
        mode=mode,
        verdict=Verdict(cx is None, cx, stats),
        space=space,
        pre=pre,
        post=post,
        program=program,
    )
