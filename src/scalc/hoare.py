"""Total and partial correctness checks, and extensional weakest preconditions.

A triple (P, S, Q) is totally correct when every P-state has at least one
successor and all of its successors satisfy Q.  It is partially correct when
every successor of every P-state satisfies Q (termination not required).

Each question has one scan, which reads S through a function from an initial
index to its finals in increasing order (`Rows`): a `Relation`'s `row`, or
`semantics.successors` of a program.  `_decide` answers the triples: over P
and a relation for `check_total`/`check_partial`, and for `verify` over the
precondition's states only, evaluating Q only on the finals reached.  It
scans initial states in index order, so the counterexample reported has the
smallest initial index, then the smallest final index.  `_wp` reads every
state's row once, for `wp` and `program_wp`.  The law suite states both
questions as S-formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import SpaceMismatchError
from .predicates import PredExpr, PredSet, compile_pred, pred_to_set
from .semantics import Relation, successors
from .state_space import State, StateSpace, index_to_state
from .syntax import Stmt

NO_SUCCESSOR = "NoSuccessor"
BAD_SUCCESSOR = "BadSuccessor"
PARTIAL_VIOLATION = "PartialViolation"

Rows = Callable[[int], tuple[int, ...]]  # an initial index to its finals, ascending


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


@dataclass(frozen=True)
class Verdict:
    holds: bool
    counterexample: Optional[Counterexample]
    stats: CheckStats


def _require_compatible(s: Relation, *sets: PredSet):
    if any(x.size != s.space.size for x in sets):
        raise SpaceMismatchError(f"relation over {s.space.size} states, sets over {[x.size for x in sets]}")


def check_total(p: PredSet, s: Relation, q: PredSet) -> Verdict:
    """Every P-state must have a successor, and only Q-successors."""
    _require_compatible(s, p, q)
    return _decide(p.indices(), s.row, q.__contains__, "total", s.space)


def check_partial(p: PredSet, s: Relation, q: PredSet) -> Verdict:
    """Successors of P-states must satisfy Q; successor-free states are fine."""
    _require_compatible(s, p, q)
    return _decide(p.indices(), s.row, q.__contains__, "partial", s.space)


def _decide(
    initials: Iterable[int], finals_of: Rows, holds_post: Callable[[int], bool], mode: str, space: StateSpace
) -> Verdict:
    """The triple's verdict from the rows of `initials`, in increasing order;
    the postcondition is evaluated once a final, on the finals reached."""
    good: dict[int, bool] = {}  # post at each final reached so far
    states = 0
    pairs = 0
    cx = None
    for i in initials:
        states += 1
        finals = finals_of(i)
        pairs += len(finals)
        if not finals and mode == "total":
            cx = Counterexample(NO_SUCCESSOR, index_to_state(space, i), None, i, None)
            break
        for j in finals:
            ok = good.get(j)
            if ok is None:
                ok = good[j] = holds_post(j)
            if not ok:
                kind = BAD_SUCCESSOR if mode == "total" else PARTIAL_VIOLATION
                cx = Counterexample(kind, index_to_state(space, i), index_to_state(space, j), i, j)
                break
        if cx is not None:
            break
    return Verdict(cx is None, cx, CheckStats(states, pairs))


def wp(s: Relation, q: PredSet) -> PredSet:
    """Largest P with (P, s, q) totally correct: states with some successor
    and only q-successors."""
    _require_compatible(s, q)
    return _wp(s.row, q)


def program_wp(program: Stmt, post: PredExpr, space: StateSpace) -> PredSet:
    """wp(program, post) read one row of the program at a time: the same set
    as `wp` over `denote(program, space)`, without tabulating the relation."""
    q = pred_to_set(post, space)
    return _wp(successors(program, space), q)


def _wp(finals_of: Rows, q: PredSet) -> PredSet:
    """The states, over q's space, with some final and only finals in q."""
    good = bytearray(q.size)
    for j in q.indices():
        good[j] = 1
    member = bytearray(b"0") * q.size
    for i in range(q.size):
        finals = finals_of(i)
        if finals and all(map(good.__getitem__, finals)):
            member[i] = ord("1")
    return PredSet(q.size, int(member[::-1], 2))


@dataclass(frozen=True)
class Report:
    """The mode and verdict of a verification run, JSON-ready."""

    mode: str
    verdict: Verdict

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
    initials = pred_to_set(pre, space).indices()
    return Report(mode, _decide(initials, successors(program, space), compile_pred(post, space), mode, space))
