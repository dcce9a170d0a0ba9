"""Reference interpreter and output checks.

`Model` runs a program structure from `workloads.py` forward, state by
state, and derives from it every answer the benchmark compares scalc's
output with: verdicts and counterexamples, `states_checked` and
`pairs_checked`, the weakest-precondition set, and the relation's pairs.
It shares no code with scalc.

Semantics, as documented in scalc's README:

* a havoc declaration has one outcome per value of the variable's domain;
* an assignment whose value leaves the variable's domain has no outcome
  (stuck);
* a loop's outcomes are the guard-false states reachable by a finite chain
  of body steps; a chain that runs longer than the space size must revisit
  a state, so a state whose every chain cycles has no outcome (divergence).

Generated domains and constants are small, so no intermediate value comes
near the 64-bit bounds where scalc's arithmetic becomes undefined.

The law checks test properties every correct run has, not a saved output.
"""

from __future__ import annotations

import json

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}
_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Model:
    """A program over the product of (name, lo, hi) integer ranges."""

    def __init__(self, variables, program):
        self.names = tuple(name for name, _, _ in variables)
        self.bounds = tuple((lo, hi) for _, lo, hi in variables)
        self.position = {name: k for k, name in enumerate(self.names)}
        strides = []
        acc = 1
        for lo, hi in reversed(self.bounds):
            strides.append(acc)
            acc *= hi - lo + 1
        self.strides = tuple(reversed(strides))
        self.size = acc
        self._run = self._stmt(program)
        self._outcomes: dict = {}

    # --- states

    def index(self, state) -> int:
        return sum((v - lo) * st for v, (lo, _), st in zip(state, self.bounds, self.strides))

    def state(self, index: int) -> tuple:
        out = []
        for (lo, hi), st in zip(self.bounds, self.strides):
            pos, index = divmod(index, st)
            out.append(lo + pos)
        return tuple(out)

    def states(self):
        """Every state, in index order."""
        return (self.state(i) for i in range(self.size))

    def as_dict(self, state) -> dict:
        return dict(zip(self.names, state))

    def states_where(self, pred) -> list:
        test = self.pred(pred)
        return [s for s in self.states() if test(s)]

    # --- compilation to closures

    def expr(self, e):
        kind = e[0]
        if kind == "var":
            k = self.position[e[1]]
            return lambda s: s[k]
        if kind == "const":
            value = e[1]
            return lambda s: value
        op, a, b = _ARITH[kind], self.expr(e[1]), self.expr(e[2])
        return lambda s: op(a(s), b(s))

    def pred(self, p):
        kind = p[0]
        if kind == "true":
            return lambda s: True
        if kind == "!":
            inner = self.pred(p[1])
            return lambda s: not inner(s)
        if kind == "&&":
            a, b = self.pred(p[1]), self.pred(p[2])
            return lambda s: a(s) and b(s)
        if kind == "||":
            a, b = self.pred(p[1]), self.pred(p[2])
            return lambda s: a(s) or b(s)
        op, a, b = _CMP[kind], self.expr(p[1]), self.expr(p[2])
        return lambda s: op(a(s), b(s))

    def _stmt(self, st):
        """Compile a statement to a function from a state to a tuple or set
        of outcome states."""
        kind = st[0]
        if kind == "assign":
            k = self.position[st[1]]
            lo, hi = self.bounds[k]
            value = self.expr(st[2])

            def run(s):
                v = value(s)
                return (s[:k] + (v,) + s[k + 1 :],) if lo <= v <= hi else ()

            return run
        if kind == "havoc":
            k = self.position[st[1]]
            lo, hi = self.bounds[k]
            return lambda s: tuple(s[:k] + (v,) + s[k + 1 :] for v in range(lo, hi + 1))
        if kind == "seq":
            parts = [self._stmt(part) for part in st[1]]

            def run(s):
                current = (s,)
                for part in parts:
                    if len(current) == 1:
                        current = part(current[0])
                    else:
                        current = tuple({out for c in current for out in part(c)})
                return current

            return run
        if kind == "if":
            test = self.pred(st[1])
            then = self._stmt(st[2])
            other = self._stmt(st[3]) if st[3] is not None else (lambda s: (s,))
            return lambda s: then(s) if test(s) else other(s)
        if kind == "while":
            return self._while(self.pred(st[1]), self._stmt(st[2]))
        raise ValueError(f"not a statement: {st!r}")

    @staticmethod
    def _while(test, body):
        # Outcomes of states already explored.  Along a deterministic chain
        # every state has the outcomes of the chain's end, so the whole chain
        # is remembered at once and each state is stepped through only once.
        memo: dict = {}

        def run(s):
            if s in memo:
                return memo[s]
            finals = set()
            seen = {s}
            chain = [s]
            stack = [s]
            deterministic = True
            while stack:
                x = stack.pop()
                if x in memo:
                    finals.update(memo[x])
                    continue
                if not test(x):
                    finals.add(x)
                    continue
                nxt = body(x)
                if len(nxt) > 1:
                    deterministic = False
                for y in nxt:
                    if y not in seen:
                        seen.add(y)
                        chain.append(y)
                        stack.append(y)
            result = tuple(finals)
            if deterministic:
                for x in chain:
                    if test(x) and x not in memo:
                        memo[x] = result
            memo[s] = result
            return result

        return run

    def outcomes(self, state) -> tuple:
        """Outcome states of `state`, sorted by index."""
        out = self._outcomes.get(state)
        if out is None:
            out = tuple(sorted(set(self._run(state)), key=self.index))
            self._outcomes[state] = out
        return out


# ---------------------------------------------------------------------------
# expected command outputs


def expected_verify(spec, mode: str) -> dict:
    """The report `scalc verify` prints: P-states are scanned in index
    order and the first failing one is the counterexample, with its
    smallest bad outcome."""
    model = Model(spec.variables, spec.program)
    post = model.pred(spec.post)
    states = pairs = 0
    cx = None
    for s in model.states_where(spec.pre):
        outs = model.outcomes(s)
        states += 1
        pairs += len(outs)
        if not outs and mode == "total":
            cx = {"kind": "NoSuccessor", "initial": model.as_dict(s), "final": None}
            break
        bad = [o for o in outs if not post(o)]
        if bad:
            kind = "BadSuccessor" if mode == "total" else "PartialViolation"
            cx = {"kind": kind, "initial": model.as_dict(s), "final": model.as_dict(bad[0])}
            break
    return {
        "mode": mode,
        "holds": cx is None,
        "counterexample": cx,
        "stats": {"states_checked": states, "pairs_checked": pairs},
    }


def expected_wp(spec, limit: int) -> dict:
    model = Model(spec.variables, spec.program)
    post = model.pred(spec.post)
    members = []
    for s in model.states():
        outs = model.outcomes(s)
        if outs and all(post(o) for o in outs):
            members.append(s)
    return {
        "count": len(members),
        "space_size": model.size,
        "states": [model.as_dict(s) for s in members[:limit]],
        "truncated": len(members) > limit,
    }


def expected_pairs(spec) -> list:
    model = Model(spec.variables, spec.program)
    return [
        [i, model.index(o)] for i, s in enumerate(model.states()) for o in model.outcomes(s)
    ]


def check_spec_op(argv, spec, rc: int, out: str) -> str | None:
    """None when the output of a verify, wp or dump-relation command is
    right, else a one-line reason."""
    command = argv[0]
    if command == "dump-relation":
        want = expected_pairs(spec)
        if rc != 0:
            return f"exit code {rc}"
        if out != "".join(f"[{i}, {j}]\n" for i, j in want):
            try:
                got = [json.loads(line) for line in out.splitlines()]
            except ValueError:
                return "output is not JSON lines"
            if got != want:
                return f"{len(got)} pairs printed, {len(want)} expected, or they differ"
        return None
    try:
        got = json.loads(out)
    except ValueError:
        return f"output is not one JSON document (exit code {rc})"
    if command == "verify":
        want = expected_verify(spec, argv[argv.index("--mode") + 1])
        want_rc = 0 if want["holds"] else 1
    else:
        want = expected_wp(spec, int(argv[argv.index("--limit") + 1]))
        want_rc = 0
    if got != want:
        return f"got {json.dumps(got, sort_keys=True)}, expected {json.dumps(want, sort_keys=True)}"
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    return None


# ---------------------------------------------------------------------------
# law checks

# Predicate and relation symbols of each catalog entry, as stated in the
# paper (fixed symbols such as tau and phi are not drawn).  Entries missing
# here are checked against every (p, r) with p <= 5 and r <= 2.
LAW_SYMBOLS = {
    **dict.fromkeys(("thm3.1a", "thm3.1b", "thm3.4a", "thm3.4b", "thm3.6a"), (3, 1)),
    **dict.fromkeys(("thm3.1c", "thm3.2a", "thm3.2b", "thm3.3", "thm3.4c", "negative-control-1"), (4, 1)),
    **dict.fromkeys(("cor3.1", "thm3.4d"), (3, 1)),
    **dict.fromkeys(("thm3.5",), (1, 1)),
    **dict.fromkeys(
        ("thm3.6b", "thm3.6c", "thm3.6d", "thm3.6e", "cor3.2", "cor3.3", "thm5.7",
         "thm3.6d-variant", "thm3.6e-converse"),
        (2, 1),
    ),
    "thm5.2": (0, 1),
    **dict.fromkeys(("thm5.3", "thm5.4", "thm5.5", "negative-control-2"), (2, 1)),
    "thm5.6": (1, 1),
    **dict.fromkeys(("t1", "t2", "t6"), (0, 1)),
    **dict.fromkeys(("t3", "t7", "t8", "t9"), (1, 0)),
    "t10": (1, 0),
    **dict.fromkeys(("t4", "t5", "t11", "t12", "t13", "t14", "t15", "t11-variant"), (2, 0)),
    **dict.fromkeys(("t16", "t19", "t20", "t21", "t20-variant"), (3, 0)),
    **dict.fromkeys(("t17", "t18", "t22"), (4, 0)),
}


def law_trial_counts(p: int, r: int, sizes, trials: int) -> set:
    """Every total a law with p predicate and r relation symbols can report:
    per size n, 2^p * 3^r boundary bindings plus the random trials plus
    either none or all 2^(n*p) * 2^(n*n*r) exhaustive bindings, whatever
    limit decides between the two."""
    totals = {0}
    for n in sizes:
        base = 2**p * 3**r + trials
        full = 2 ** (n * p) * 2 ** (n * n * r)
        totals = {t + base for t in totals} | {t + base + full for t in totals}
    return totals


def check_laws_op(argv, rc: int, out: str, controls) -> tuple[str | None, int]:
    """(reason or None, trials reported) for one `scalc laws` run.  A
    theorem must report no violation and a negative control at least one;
    every law's trial count must follow `law_trial_counts`."""
    sizes = [int(argv[k + 1]) for k, a in enumerate(argv) if a == "--size"]
    trials = int(argv[argv.index("--trials") + 1])
    named = argv[argv.index("--law") + 1] if "--law" in argv else None
    try:
        rows = [json.loads(line) for line in out.splitlines()]
        rows = [(row["law"], int(row["trials"]), int(row["violations"])) for row in rows]
    except (ValueError, KeyError, TypeError):
        return f"output is not JSON lines of law, trials and violations (exit code {rc})", 0
    if not rows:
        return "no law reported", 0
    if named is not None and [law for law, _, _ in rows] != [named]:
        return f"asked for {named}, got {[law for law, _, _ in rows]}", 0
    total = 0
    for law, count, bad in rows:
        total += count
        if law in controls:
            if named is None:
                return f"negative control {law} ran in the default catalog", total
            if bad < 1:
                return f"negative control {law} reported no violation", total
        elif bad != 0:
            return f"theorem {law} reported {bad} violations", total
        shapes = [LAW_SYMBOLS[law]] if law in LAW_SYMBOLS else [
            (p, r) for p in range(6) for r in range(3)
        ]
        if not any(count in law_trial_counts(p, r, sizes, trials) for p, r in shapes):
            return f"{law} reported {count} trials, which no binding count gives", total
    want_rc = 1 if named is not None else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}", total
    return None, total
