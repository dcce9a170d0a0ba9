"""Error types shared across the package, plus source positions.

Every failure mode that callers are expected to catch gets its own class so
tests and the CLI can match on type instead of message text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Half-open [start, end) offsets into the source text, with 1-based line/col."""

    start: int
    end: int
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ScalcError(Exception):
    """Base class for all package errors."""


class SpaceTooLargeError(ScalcError):
    """The product of domain sizes exceeds the configured limit."""

    def __init__(self, size: int, limit: int):
        super().__init__(f"state space has {size} states, limit is {limit}")
        self.size = size
        self.limit = limit


class EmptyDomainError(ScalcError):
    """A variable was given a domain with no values."""

    def __init__(self, var: str):
        super().__init__(f"domain of '{var}' is empty")
        self.var = var


class IndexOutOfRangeError(ScalcError):
    def __init__(self, index: int, size: int):
        super().__init__(f"state index {index} out of range [0, {size})")
        self.index = index
        self.size = size


class ValueNotInDomainError(ScalcError):
    def __init__(self, var: str, value: int):
        super().__init__(f"value {value} not in the domain of '{var}'")
        self.var = var
        self.value = value


class UnknownVariableError(ScalcError):
    def __init__(self, var: str):
        super().__init__(f"unknown variable '{var}'")
        self.var = var


class UnboundSymbolError(ScalcError):
    def __init__(self, symbol: str):
        super().__init__(f"symbol '{symbol}' is not bound in the environment")
        self.symbol = symbol


class ArityMismatchError(ScalcError):
    def __init__(self, symbol: str, detail: str):
        super().__init__(f"symbol '{symbol}': {detail}")
        self.symbol = symbol


class UnboundStateVariableError(ScalcError):
    """A formula variable occurs free where a closed formula is required."""

    def __init__(self, var: str):
        super().__init__(f"state variable '{var}' is not bound by any quantifier")
        self.var = var


class ScalcSyntaxError(ScalcError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class NestingTooDeepError(ScalcSyntaxError):
    """Input nested deeper than the parser accepts."""


class UndeclaredVariableError(ScalcError):
    def __init__(self, var: str, span: SourceSpan):
        super().__init__(f"{span}: variable '{var}' used before declaration")
        self.var = var
        self.span = span


class SpaceMismatchError(ScalcError):
    """A relation and the sets it is checked against are over different spaces."""


class UnknownLawError(ScalcError):
    def __init__(self, name: str):
        super().__init__(f"unknown law '{name}'")
        self.name = name


class TooManyBindingsError(ScalcError, ValueError):
    """An exhaustive law check would enumerate more bindings than it may."""


class UnsupportedForExportError(ScalcError):
    """A program or expression the SMT-LIB export cannot encode."""


class SpecFileError(ScalcError):
    """A .spec input file is malformed (missing section, bad header, ...)."""
