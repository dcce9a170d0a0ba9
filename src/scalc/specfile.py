"""The text format the command-line front end reads.

A spec file groups a verification task into sections:

    [vars]
    i: int 0..7
    n: int
    b: bool

    [program]
    // program text, verbatim
    i = i + 1;

    [pre]
    i == 0

    [post]
    i == 1

    [options]
    mode = total

Outside [program], blank lines and lines starting with `#` are ignored.
The [program] body is handed to the parser verbatim (it has its own `//`
comments).  [vars] entries are `name: type` with an optional `lo..hi` range
for ints; the default int range is -128..127 and bool is the two values
0 and 1.  [pre] defaults to `true` when absent; [post] has no default and
commands that need it reject a spec without one.  Recognized options are
`mode` (total|partial), `unroll`, and `max_states`.

Variables declared inside the program but missing from [vars] are added to
the state space with the default range for their declared type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import SpecFileError
from .predicates import PredExpr
from .state_space import VarUniverse, int_range_domain
from .syntax import Stmt, declared_vars, parse_pred, parse_program

DEFAULT_INT_RANGE = (-128, 127)

_SECTIONS = ("vars", "program", "pre", "post", "options")
_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")
_VAR_RE = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(int|bool)(?:\s+(-?\d+)\.\.(-?\d+))?$"
)
_OPTION_RE = re.compile(r"^([a-z_]+)\s*=\s*(\S+)$")


@dataclass(frozen=True)
class VarSpec:
    name: str
    type_name: str
    low: int
    high: int


@dataclass(frozen=True)
class SpecFile:
    variables: tuple[VarSpec, ...]
    program_text: str
    pre_text: str
    post_text: Optional[str]
    mode: str
    unroll: int
    max_states: Optional[int]
    origin: str


def parse_spec_text(text: str, origin: str = "<spec>") -> SpecFile:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        header = _SECTION_RE.match(line)
        if header:
            name = header.group(1)
            if name not in _SECTIONS:
                raise SpecFileError(f"{origin}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise SpecFileError(f"{origin}:{lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current == "program":
            sections[current].append((lineno, raw))
            continue
        if not line or line.startswith("#"):
            continue
        if current is None:
            raise SpecFileError(f"{origin}:{lineno}: content before the first section header")
        sections[current].append((lineno, line))

    if "program" not in sections:
        raise SpecFileError(f"{origin}: missing [program] section")

    variables = []
    seen = set()
    for lineno, line in sections.get("vars", []):
        m = _VAR_RE.match(line)
        if not m:
            raise SpecFileError(f"{origin}:{lineno}: bad variable entry '{line}'")
        name, type_name, lo, hi = m.groups()
        if name in seen:
            raise SpecFileError(f"{origin}:{lineno}: variable '{name}' listed twice")
        seen.add(name)
        if type_name == "bool":
            if lo is not None:
                raise SpecFileError(f"{origin}:{lineno}: bool variables take no range")
            low, high = 0, 1
        elif lo is not None:
            low, high = int(lo), int(hi)
            if low > high:
                raise SpecFileError(f"{origin}:{lineno}: empty range {low}..{high}")
        else:
            low, high = DEFAULT_INT_RANGE
        variables.append(VarSpec(name, type_name, low, high))

    mode = "total"
    unroll = 0
    max_states: Optional[int] = None
    for lineno, line in sections.get("options", []):
        m = _OPTION_RE.match(line)
        if not m:
            raise SpecFileError(f"{origin}:{lineno}: bad option line '{line}'")
        key, value = m.groups()
        if key == "mode":
            if value not in ("total", "partial"):
                raise SpecFileError(f"{origin}:{lineno}: mode must be total or partial")
            mode = value
        elif key == "unroll":
            if not value.isdigit():
                raise SpecFileError(f"{origin}:{lineno}: unroll must be a nonnegative integer")
            unroll = int(value)
        elif key == "max_states":
            if not value.isdigit() or int(value) == 0:
                raise SpecFileError(f"{origin}:{lineno}: max_states must be a positive integer")
            max_states = int(value)
        else:
            raise SpecFileError(f"{origin}:{lineno}: unknown option '{key}'")

    program_text = "\n".join(raw for _, raw in sections["program"])
    pre_text = " ".join(line for _, line in sections.get("pre", [])) or "true"
    post_lines = sections.get("post")
    post_text = " ".join(line for _, line in post_lines) if post_lines is not None else None
    if post_text == "":
        post_text = None

    return SpecFile(
        variables=tuple(variables),
        program_text=program_text,
        pre_text=pre_text,
        post_text=post_text,
        mode=mode,
        unroll=unroll,
        max_states=max_states,
        origin=origin,
    )


def load_spec(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc.strerror}") from None
    return parse_spec_text(text, origin=path)


@dataclass(frozen=True)
class SpecTask:
    """A parsed, type-resolved task ready for the verification modules."""

    spec: SpecFile
    program: Stmt
    pre: PredExpr
    post: Optional[PredExpr]
    universe: VarUniverse
    variables: tuple[tuple[str, str], ...]


def build_task(spec: SpecFile) -> SpecTask:
    prelude_names = tuple(v.name for v in spec.variables)
    program = parse_program(spec.program_text, predeclared=prelude_names)

    entries: list[tuple[str, str, int, int]] = [
        (v.name, v.type_name, v.low, v.high) for v in spec.variables
    ]
    known = set(prelude_names)
    for name, type_name in declared_vars(program):
        if name in known:
            continue
        known.add(name)
        if type_name == "bool":
            entries.append((name, "bool", 0, 1))
        else:
            entries.append((name, "int", *DEFAULT_INT_RANGE))

    universe = VarUniverse(
        tuple((name, int_range_domain(name, lo, hi)) for name, _, lo, hi in entries)
    )
    names = tuple(name for name, _, _, _ in entries)
    pre = parse_pred(spec.pre_text, declared=names)
    post = parse_pred(spec.post_text, declared=names) if spec.post_text is not None else None
    variables = tuple((name, t) for name, t, _, _ in entries)
    return SpecTask(
        spec=spec,
        program=program,
        pre=pre,
        post=post,
        universe=universe,
        variables=variables,
    )


def load_task(path: str) -> SpecTask:
    return build_task(load_spec(path))
