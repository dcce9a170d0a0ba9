"""Seeded inputs for the benchmark workloads.

Every program is built here as a small tuple structure, printed as spec
text for scalc, and run forward by `reference.py` to get the answers the
benchmark checks scalc's output against.

    expression  ("var", name) | ("const", k) | (op, a, b)   op in + - *
    predicate   ("true",) | (cmp, a, b)   cmp in == != < <= > >=
                | ("!", p) | ("&&", p, q) | ("||", p, q)
    statement   ("assign", var, expr) | ("havoc", var) | ("seq", (s, ...))
                | ("if", p, then, else_or_None) | ("while", p, body)

A spec's variables are (name, lo, hi) integer ranges in declaration order;
the state index is row-major with the last variable fastest, as in scalc.

A workload is a list of rounds.  Every round has the same operations in the
same order; only the drawn programs, states and seeds differ, and each one
is drawn fresh from (workload, seed, round, slot), so no two operations of a
run share an input.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

import reference

RUNGS = (2048, 4096, 8192, 16384, 32768)
FAMILIES = ("count", "branch", "havoc", "diverge")
WORKLOADS = ("verify-narrow", "whole-space", "laws")

# The middle rung carries four operations per family, the two rungs below
# it two, and the two above it one.  At the middle rung the counting and
# diverging loops cost about two thirds of the branch and havoc programs,
# so the round's operations sorted by time run: 16 below, 8 cheaper ones at
# the middle rung, 8 dearer ones, 8 above.  The median operation then falls
# inside the cluster of 8, not in the gap between the two clusters, where it
# would jump with every operation that lands on the other side.
MIDDLE_RUNG = 8192
MIDDLE_REPEATS = 2  # operations per mode or command at the middle rung

LAW_SIZES = (1, 2, 3, 4)
# The default catalog, split by size so that each run costs about the same.
CATALOG_SIZES = ((1, 4), (2,), (3,))
CATALOG_TRIALS = 200
# The negative controls (entries that must report violations), each with
# enough random trials per size to cost about as much as a catalog run.
CONTROL_TRIALS = {
    "negative-control-1": 4000,
    "negative-control-2": 8000,
    "thm3.6d-variant": 8000,
    "thm3.6e-converse": 5500,
    "t11-variant": 8000,
    "t20-variant": 4500,
}
NEGATIVE_CONTROLS = tuple(CONTROL_TRIALS)
WP_LIMIT = 10


@dataclass(frozen=True)
class Spec:
    family: str
    variables: tuple  # ((name, lo, hi), ...)
    program: tuple
    pre: tuple
    post: tuple

    @property
    def size(self) -> int:
        n = 1
        for _, lo, hi in self.variables:
            n *= hi - lo + 1
        return n

    def text(self) -> str:
        lines = ["[vars]"]
        lines += [f"{name}: int {lo}..{hi}" for name, lo, hi in self.variables]
        lines += ["", "[program]", *stmt_lines(self.program, 0), ""]
        lines += ["[pre]", pred_text(self.pre), "", "[post]", pred_text(self.post), ""]
        return "\n".join(lines)


@dataclass(frozen=True)
class Op:
    """One CLI command on one input."""

    slot: str  # position in the round, e.g. "count-8192-total"
    argv: tuple
    spec: Spec | None  # None for `laws`
    work: int  # states of the input space, or law trials (known after the run)
    rung: int = 0  # the ladder rung of the input space


# ---------------------------------------------------------------------------
# printing


_PREC = {"+": 1, "-": 1, "*": 2}


def expr_text(e, min_prec: int = 0) -> str:
    kind = e[0]
    if kind == "var":
        return e[1]
    if kind == "const":
        return str(e[1])
    prec = _PREC[kind]
    # left-associative: the right operand needs parentheses at equal precedence
    s = f"{expr_text(e[1], prec)} {kind} {expr_text(e[2], prec + 1)}"
    return f"({s})" if prec < min_prec else s


def pred_text(p) -> str:
    kind = p[0]
    if kind == "true":
        return "true"
    if kind == "!":
        return f"!({pred_text(p[1])})"
    if kind in ("&&", "||"):
        return f"({pred_text(p[1])} {kind} {pred_text(p[2])})"
    return f"{expr_text(p[1])} {kind} {expr_text(p[2])}"


def stmt_lines(s, depth: int) -> list[str]:
    pad = "    " * depth
    kind = s[0]
    if kind == "assign":
        return [f"{pad}{s[1]} = {expr_text(s[2])};"]
    if kind == "havoc":
        return [f"{pad}int {s[1]};"]
    if kind == "seq":
        return [line for part in s[1] for line in stmt_lines(part, depth)]
    if kind == "while":
        return [f"{pad}while ({pred_text(s[1])}) {{", *stmt_lines(s[2], depth + 1), pad + "}"]
    if kind == "if":
        out = [f"{pad}if ({pred_text(s[1])}) {{", *stmt_lines(s[2], depth + 1), pad + "}"]
        if s[3] is not None:
            out += [pad + "else {", *stmt_lines(s[3], depth + 1), pad + "}"]
        return out
    raise ValueError(f"not a statement: {s!r}")


# ---------------------------------------------------------------------------
# program families


def V(name):
    return ("var", name)


def C(k):
    return ("const", k)


def _count(rng: random.Random, n: int):
    """Counting and factorial loops over (i, n, f), then a one-armed if;
    up to 8 passes."""
    variables = (("i", 0, 7), ("n", 0, 7), ("f", 0, n // 64 - 1))
    update = rng.choice(
        [
            ("*", V("f"), V("i")),
            ("+", V("f"), V("i")),
            ("+", ("+", V("f"), V("i")), C(rng.randint(1, 3))),
        ]
    )
    guard = (rng.choice(["<=", "<"]), V("i"), V("n"))
    body = ("seq", (("assign", "f", update), ("assign", "i", ("+", V("i"), C(1)))))
    clamp = ("if", (">", V("f"), C(rng.randint(8, 15))), ("assign", "f", ("-", V("f"), C(8))), None)
    program = ("seq", (("while", guard, body), clamp))
    f0 = rng.randint(0, 3)
    box = {"i": (rng.randint(0, 3),) * 2, "n": (rng.randint(3, 7),) * 2, "f": (f0, f0 + rng.randint(0, 2))}
    return variables, program, box, "f", ("!", guard)


def _cmp(rng, a, b):
    return (rng.choice(["<", "<=", ">", ">=", "!="]), V(a), V(b))


def _branch(rng: random.Random, n: int):
    """Loop-free nested branches over (a, b, c, m), an if-else two deep
    and a trailing one-armed if."""
    variables = (("a", 0, 7), ("b", 0, 7), ("c", 0, 7), ("m", 0, n // 512 - 1))
    leaves = [
        ("+", V("a"), V("b")),
        ("-", V("c"), V("a")),
        ("*", V("b"), C(2)),
        ("+", ("+", V("a"), V("c")), C(rng.randint(1, 4))),
        ("-", ("+", V("m"), V("b")), V("c")),
    ]
    rng.shuffle(leaves)

    def leaf(k):
        return ("assign", "m", leaves[k])

    program = (
        "seq",
        (
            (
                "if",
                _cmp(rng, "a", "b"),
                ("if", _cmp(rng, "b", "c"), leaf(0), leaf(1)),
                ("if", _cmp(rng, "a", "c"), leaf(2), leaf(3)),
            ),
            ("if", (">", V("m"), C(rng.randint(2, 6))), ("assign", "m", ("-", V("m"), V("a"))), None),
        ),
    )
    box = {"a": (rng.randint(0, 7),) * 2, "b": (rng.randint(0, 7),) * 2, "c": (rng.randint(0, 7),) * 2}
    m0 = rng.randint(0, 2)
    box["m"] = (m0, m0 + rng.randint(0, 1))
    return variables, program, box, "m", ("&&", (">=", V("m"), C(0)), ("<=", V("m"), C(n // 512 - 1)))


def _havoc(rng: random.Random, n: int):
    """A havoc declaration of t (6 values), a branch on it, then a loop that
    counts t down; up to 5 passes."""
    variables = (("x", 0, 15), ("y", 0, n // 96 - 1), ("t", 0, 5))
    k = rng.randint(1, 3)
    program = (
        "seq",
        (
            ("havoc", "t"),
            (
                "if",
                (rng.choice(["<=", "<", "!="]), V("t"), V("x")),
                ("assign", "y", ("+", V("y"), V("t"))),
                ("assign", "y", ("-", V("y"), C(k))),
            ),
            (
                "while",
                (">", V("t"), C(0)),
                ("seq", (("assign", "y", ("+", V("y"), C(1))), ("assign", "t", ("-", V("t"), C(1))))),
            ),
        ),
    )
    y0 = rng.randint(4, 12)
    box = {"x": (rng.randint(0, 15),) * 2, "y": (y0, y0 + rng.randint(0, 2)), "t": (0, 0)}
    return variables, program, box, "y", ("<=", V("t"), C(0))


def _diverge(rng: random.Random, n: int):
    """i steps by d modulo 16 until it meets t: states where t - i is odd
    loop forever; up to 8 passes."""
    variables = (("i", 0, 15), ("t", 0, 15), ("z", 0, n // 256 - 1))
    d = rng.choice([2, 6, 10, 14])  # gcd(d, 16) = 2: cycles of 8 for every seed
    guard = ("!=", V("i"), V("t"))
    body = (
        "seq",
        (
            ("assign", "i", ("+", V("i"), C(d))),
            ("if", (">", V("i"), C(15)), ("assign", "i", ("-", V("i"), C(16))), None),
        ),
    )
    program = (
        "seq",
        (
            ("while", guard, body),
            ("if", (">", V("z"), C(0)), ("assign", "z", ("-", V("z"), C(1))), ("assign", "z", ("+", V("z"), C(2)))),
        ),
    )
    z0 = rng.randint(1, 5)
    box = {"i": (rng.randint(0, 15),) * 2, "t": (rng.randint(0, 15),) * 2, "z": (z0, z0 + rng.randint(0, 2))}
    return variables, program, box, "i", ("==", V("i"), V("t"))


# Each family returns (variables, program, the precondition's box of
# per-variable ranges, the variable postconditions speak of, and a
# postcondition that every outcome meets).
_FAMILY = {"count": _count, "branch": _branch, "havoc": _havoc, "diverge": _diverge}


def _conj(preds):
    out = preds[0]
    for p in preds[1:]:
        out = ("&&", out, p)
    return out


def _box_pred(box: dict):
    parts = []
    for name, (lo, hi) in box.items():
        if lo == hi:
            parts.append(("==", V(name), C(lo)))
        else:
            parts += [(">=", V(name), C(lo)), ("<=", V(name), C(hi))]
    return _conj(parts)


def narrow_spec(family: str, n: int, hold: bool, rng: random.Random) -> Spec:
    """A triple whose precondition holds in one to three states.  The
    postcondition bounds one variable by its outcomes from those states;
    when `hold` is false it excludes one outcome instead, so the triple
    fails wherever that outcome is reachable."""
    variables, program, box, var, _ = _FAMILY[family](rng, n)
    pre = _box_pred(box)
    ref = reference.Model(variables, program)
    values = sorted(
        {out[ref.position[var]] for s in ref.states_where(pre) for out in ref.outcomes(s)}
    )
    if not values:
        post = (">=", V(var), C(0))
    elif hold:
        post = ("&&", (">=", V(var), C(values[0])), ("<=", V(var), C(values[-1])))
    else:
        post = ("!=", V(var), C(values[0]))
    return Spec(family, variables, program, pre, post)


def whole_spec(family: str, n: int, rng: random.Random, command: str) -> Spec:
    """A triple with precondition true.  For `verify` the postcondition
    holds on every outcome (a loop's exit condition, or a variable's
    range), so the check scans every state; for `wp` it is a threshold."""
    variables, program, _, var, exit_post = _FAMILY[family](rng, n)
    if command == "wp":
        hi = next(h for name, _, h in variables if name == var)
        post = ("<=", V(var), C(rng.randint(0, hi)))
    else:
        post = exit_post
    return Spec(family, variables, program, ("true",), post)


# ---------------------------------------------------------------------------
# rounds


def _rng(workload: str, seed: int, rnd: int, slot: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}/{slot}")


def round_ops(workload: str, seed: int, rnd: int, workdir: str | None) -> list[Op]:
    """The operations of round `rnd`.  With a `workdir`, spec files are
    written there and the argv names them; without one, the specs are only
    built (to check outputs against)."""
    ops: list[Op] = []

    def spec_op(slot, spec, argv_tail, command, rung):
        path = os.path.join(workdir or ".", f"r{rnd}-{slot}.spec")
        if workdir is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec.text())
        ops.append(Op(slot, (command, path, *argv_tail), spec, spec.size, rung))

    if workload == "verify-narrow":
        for r, n in enumerate(RUNGS):
            for f, family in enumerate(FAMILIES):
                if n == MIDDLE_RUNG:
                    slots = [(mode, f"-{k}") for mode in ("total", "partial") for k in range(MIDDLE_REPEATS)]
                elif n < MIDDLE_RUNG:
                    slots = [("total", ""), ("partial", "")]
                else:
                    slots = [(("total", "partial")[(r + f) % 2], "")]
                for k, (mode, suffix) in enumerate(slots):
                    hold = (r + f // 2 + k) % 2 == 0
                    slot = f"{family}-{n}-{mode}{suffix}"
                    spec = narrow_spec(family, n, hold, _rng(workload, seed, rnd, slot))
                    spec_op(slot, spec, ("--mode", mode), "verify", n)
    elif workload == "whole-space":
        tails = {"verify": ("--mode", "partial"), "wp": ("--limit", str(WP_LIMIT)), "dump-relation": ()}
        for r, n in enumerate(RUNGS):
            for f, family in enumerate(FAMILIES):
                commands = ("dump-relation", "verify", "wp")
                if n == MIDDLE_RUNG:
                    slots = [(command, f"-{k}") for command in ("verify", "wp") for k in range(MIDDLE_REPEATS)]
                elif n < MIDDLE_RUNG:
                    slots = [(commands[(r + f + j) % 3], "") for j in (0, 1)]
                else:
                    slots = [(commands[(r + f) % 3], "")]
                for command, suffix in slots:
                    slot = f"{family}-{n}-{command}{suffix}"
                    spec = whole_spec(family, n, _rng(workload, seed, rnd, slot), command)
                    spec_op(slot, spec, tails[command], command, n)
    elif workload == "laws":
        for sizes in CATALOG_SIZES:
            slot = "catalog-" + "-".join(map(str, sizes))
            s = _rng(workload, seed, rnd, slot).getrandbits(32)
            flags = tuple(x for size in sizes for x in ("--size", str(size)))
            argv = ("laws", *flags, "--trials", str(CATALOG_TRIALS), "--seed", str(s))
            ops.append(Op(slot, argv, None, 0))
        for law, trials in CONTROL_TRIALS.items():
            s = _rng(workload, seed, rnd, law).getrandbits(32)
            flags = tuple(x for size in LAW_SIZES for x in ("--size", str(size)))
            argv = ("laws", "--law", law, *flags, "--trials", str(trials), "--seed", str(s))
            ops.append(Op(law, argv, None, 0))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _interleave(ops) if workload != "laws" else ops


def _interleave(ops: list[Op]) -> list[Op]:
    """Spread the middle rung's operations evenly through the round, with
    large and small spaces alternating between them, so that the median
    samples the machine across the whole run instead of in one stretch."""
    middle = [op for op in ops if op.rung == MIDDLE_RUNG]
    by_rung = {n: [op for op in ops if op.rung == n] for n in RUNGS if n != MIDDLE_RUNG}
    rest = list(by_rung)
    largest_smallest = [n for pair in zip(reversed(rest), rest) for n in pair][: len(rest)]
    groups = itertools.zip_longest(*(by_rung[n] for n in largest_smallest))
    others = [op for group in groups for op in group if op is not None]
    out = []
    for k, op in enumerate(middle):
        out.append(op)
        out.extend(others[k * len(others) // len(middle) : (k + 1) * len(others) // len(middle)])
    return out
