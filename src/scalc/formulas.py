"""First-order formulas over a finite state space.

Formula variables range over *states* (by index).  Unary symbols are bound
to PredSets and binary symbols to Relations by an environment; evaluation is
the usual Tarski semantics with quantifiers enumerating every state index.
This is the engine behind the schematic law templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import ArityMismatchError, UnboundStateVariableError, UnboundSymbolError
from .predicates import PredSet
from .semantics import Relation
from .state_space import StateSpace


@dataclass(frozen=True)
class SFormula:
    pass


@dataclass(frozen=True)
class PredApp(SFormula):
    """P(x): the state bound to x lies in the set bound to P."""

    symbol: str
    var: str


@dataclass(frozen=True)
class RelApp(SFormula):
    """S(x, y): the pair of states bound to (x, y) lies in the relation bound to S."""

    symbol: str
    var1: str
    var2: str


@dataclass(frozen=True)
class FNot(SFormula):
    operand: SFormula


@dataclass(frozen=True)
class FAnd(SFormula):
    left: SFormula
    right: SFormula


@dataclass(frozen=True)
class FOr(SFormula):
    left: SFormula
    right: SFormula


@dataclass(frozen=True)
class FImplies(SFormula):
    left: SFormula
    right: SFormula


@dataclass(frozen=True)
class FIff(SFormula):
    left: SFormula
    right: SFormula


@dataclass(frozen=True)
class Forall(SFormula):
    var: str
    body: SFormula


@dataclass(frozen=True)
class Exists(SFormula):
    var: str
    body: SFormula


def free_vars(f: SFormula) -> frozenset[str]:
    if isinstance(f, PredApp):
        return frozenset({f.var})
    if isinstance(f, RelApp):
        return frozenset({f.var1, f.var2})
    if isinstance(f, FNot):
        return free_vars(f.operand)
    if isinstance(f, (FAnd, FOr, FImplies, FIff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: SFormula) -> Iterator[SFormula]:
    """f and every formula below it, left operands first."""
    yield f
    for child in vars(f).values():
        if isinstance(child, SFormula):
            yield from subformulas(child)


def symbol_arities(f: SFormula) -> dict[str, int]:
    """Map each symbol to 1 (predicate) or 2 (relation); mixed use raises."""
    out: dict[str, int] = {}
    for g in subformulas(f):
        if isinstance(g, (PredApp, RelApp)):
            arity = 1 if isinstance(g, PredApp) else 2
            prev = out.setdefault(g.symbol, arity)
            if prev != arity:
                raise ArityMismatchError(g.symbol, f"used with arity {prev} and {arity}")
    return out


Binding = Union[PredSet, Relation]


def _check_env(f: SFormula, env: Mapping[str, Binding], space: StateSpace):
    for symbol, arity in symbol_arities(f).items():
        if symbol not in env:
            raise UnboundSymbolError(symbol)
        binding = env[symbol]
        if arity == 1:
            if not isinstance(binding, PredSet):
                raise ArityMismatchError(symbol, "used as a predicate but bound to a relation")
            if binding.size != space.size:
                raise ValueError(f"symbol '{symbol}' bound over a space of size {binding.size}, expected {space.size}")
        else:
            if not isinstance(binding, Relation):
                raise ArityMismatchError(symbol, "used as a relation but bound to a predicate")
            if binding.space.size != space.size:
                raise ValueError(f"symbol '{symbol}' bound over a space of size {binding.space.size}, expected {space.size}")


def eval_sformula(f: SFormula, env: Mapping[str, Binding], space: StateSpace) -> bool:
    """Truth value of a closed formula in the finite model (space, env)."""
    _check_env(f, env, space)
    fv = free_vars(f)
    if fv:
        raise UnboundStateVariableError(sorted(fv)[0])
    return evaluate(f, env, {}, space)


def evaluate(f: SFormula, env: Mapping[str, Binding], binding: dict[str, int], space: StateSpace) -> bool:
    """Truth value of f with its free state variables bound by `binding`,
    unchecked: every symbol must be bound at its arity over `space`."""
    if isinstance(f, PredApp):
        return binding[f.var] in env[f.symbol]
    if isinstance(f, RelApp):
        rel = env[f.symbol]
        return rel.has_pair(binding[f.var1], binding[f.var2])
    if isinstance(f, FNot):
        return not evaluate(f.operand, env, binding, space)
    if isinstance(f, FAnd):
        return evaluate(f.left, env, binding, space) and evaluate(f.right, env, binding, space)
    if isinstance(f, FOr):
        return evaluate(f.left, env, binding, space) or evaluate(f.right, env, binding, space)
    if isinstance(f, FImplies):
        return (not evaluate(f.left, env, binding, space)) or evaluate(f.right, env, binding, space)
    if isinstance(f, FIff):
        return evaluate(f.left, env, binding, space) == evaluate(f.right, env, binding, space)
    if isinstance(f, (Forall, Exists)):
        # Save any outer binding of the same name so shadowing restores it.
        outer = binding.get(f.var, _UNBOUND)
        want = isinstance(f, Exists)
        result = not want
        for i in range(space.size):
            binding[f.var] = i
            if evaluate(f.body, env, binding, space) == want:
                result = want
                break
        if outer is _UNBOUND:
            binding.pop(f.var, None)
        else:
            binding[f.var] = outer
        return result
    raise TypeError(f"not a formula: {f!r}")


_UNBOUND = object()
