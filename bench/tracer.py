"""Spans around calls into scalc's modules, recorded from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
scalc module that binds it: a `from .x import y` binds its own name, so
the wrapper must replace each binding, aliases included.  A traced name
that a later version of scalc no longer has is reported as absent.

Each call records a span: its name, start, end and nesting depth.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the time its child spans cover.  Every span carries a
context, inherited from its parent: "law" under `laws.check_law`, "verify"
under `hoare.verify`, "cli" otherwise, so that one function called from
two layers (such as `hoare.wp`) is counted for each layer apart.
"""

from __future__ import annotations

import functools
import re
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function, how): "call" records every call; "outer" records the
# outermost call and lets recursive calls through untraced; "gen" records
# each step of a generator.
TRACED = (
    ("semantics", "denote", "call"),
    ("semantics", "denote_assign", "call"),
    ("semantics", "denote_decl", "call"),
    ("semantics", "denote_seq", "call"),
    ("semantics", "denote_ite", "call"),
    ("semantics", "denote_if", "call"),
    ("semantics", "denote_while", "call"),
    ("predicates", "pred_to_set", "call"),
    ("hoare", "verify", "call"),
    ("hoare", "check_total", "call"),
    ("hoare", "check_partial", "call"),
    ("hoare", "wp", "call"),
    ("specfile", "load_task", "call"),
    ("state_space", "build_space", "call"),
    ("formulas", "eval_sformula", "call"),
    ("formulas", "symbol_arities", "outer"),
    ("formulas", "free_vars", "outer"),
    ("laws", "check_law", "call"),
    ("laws", "_boundary_envs", "gen"),
    ("laws", "_exhaustive_envs", "gen"),
    ("laws", "_random_env", "call"),
    ("rng", "derive_seed", "call"),
)
SPAN_CAP = 100_000
_SCHEMA_LAW = re.compile(r"t\d")


class _Frame:
    __slots__ = ("name", "context", "start", "child")

    def __init__(self, name, context, start):
        self.name = name
        self.context = context
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        # (name, context) -> [calls, self seconds, outermost inclusive seconds]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.top = 0.0  # time covered by spans with no parent, this op
        self.hook = 0.0  # tracer work outside every span, this op
        self.absent: list[str] = []
        self._originals: list[tuple] = []

    # --- spans

    def enter(self, name):
        parent = self.stack[-1].context if self.stack else "cli"
        if name == "laws.check_law":
            context = "law"
        elif name == "hoare.verify":
            context = "verify"
        else:
            context = parent
        self.depth[name] += 1
        self.stack.append(_Frame(name, context, self.clock()))

    def exit(self):
        end = self.clock()
        frame = self.stack.pop()
        duration = end - frame.start
        row = self.agg[(frame.name, frame.context)]
        row[0] += 1
        row[1] += duration - frame.child
        self.depth[frame.name] -= 1
        if self.depth[frame.name] == 0:
            row[2] += duration
        if self.stack:
            self.stack[-1].child += duration
        else:
            self.top += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, frame.name, frame.start, end, len(self.stack)))
        else:
            self.dropped += 1
        return frame, duration

    def after(self, started):
        """Take tracer work done since `started` out of the enclosing span."""
        spent = self.clock() - started
        if self.stack:
            self.stack[-1].child += spent
        else:
            self.hook += spent

    # --- wrappers

    def _wrap_call(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame, duration = tracer.exit()
            started = tracer.clock()
            tracer.observe(name, frame, duration, args, result)
            tracer.after(started)
            return result

        return wrapper

    def _wrap_outer(self, name, fn):
        tracer = self
        traced = self._wrap_call(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.depth[name]:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return wrapper

    def _wrap_gen(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.exit()
                    return
                except BaseException:
                    tracer.exit()
                    raise
                tracer.exit()
                tracer.counts[name] += 1
                yield item

        return wrapper

    def observe(self, name, frame, duration, args, result):
        """Counts read from a call's arguments and result."""
        if name == "semantics.denote" and self.depth[name] == 0:
            self.counts["denote.outer"] += 1
            count = getattr(result, "pair_count", None)
            self.counts["relation_pairs"] += count() if count else sum(1 for _ in result.pairs())
        elif name == "state_space.build_space" and frame.context == "cli":
            self.counts["states"] += getattr(result, "size", 0)
        elif name == "laws.check_law":
            law = args[0] if args else ""
            kind = "schema" if _SCHEMA_LAW.match(law) else "triple"
            self.counts[f"law_s.{kind}"] += duration
        elif name == "laws._random_env":
            self.counts[name] += 1

    def install(self):
        """Wrap every traced function wherever a scalc module binds it."""
        for module_name, func_name, how in TRACED:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules.get(f"scalc.{module_name}"), func_name, None)
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            make = {"call": self._wrap_call, "outer": self._wrap_outer, "gen": self._wrap_gen}[how]
            self._originals += rebind(original, make(name, original))

    def uninstall(self):
        unbind(self._originals)

    # --- results

    def total(self, name, contexts=("cli", "verify", "law"), column=2):
        return sum(self.agg[(name, c)][column] for c in contexts if (name, c) in self.agg)

    def calls(self, name):
        return self.total(name, column=0)

    def self_s(self, name):
        return self.total(name, column=1)


def rebind(original, wrapper) -> list[tuple]:
    """Point every scalc module's binding of `original` at `wrapper`;
    returns what `unbind` needs to undo it."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name == "scalc" or module_name.startswith("scalc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
    return undo


def unbind(undo: list[tuple]):
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)
    undo.clear()


class DenotePeak:
    """Peak traced memory inside each outermost `denote` call."""

    def __init__(self):
        self.peak = 0
        self._originals: list[tuple] = []

    def install(self):
        home = sys.modules.get("scalc.semantics")
        original = getattr(home, "denote", None)
        if original is None:
            return False
        state = {"depth": 0}

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if state["depth"]:
                return original(*args, **kwargs)
            state["depth"] += 1
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                state["depth"] -= 1

        self._originals = rebind(original, wrapper)
        return True

    def uninstall(self):
        unbind(self._originals)


# Per-layer metrics of a traced run, with their units.  Times are seconds
# summed over the run's operations; "self" times exclude child spans.
LAYER_METRICS = (
    ("semantics.denote_s", "s"),
    ("semantics.assign_s", "s"),
    ("semantics.decl_s", "s"),
    ("semantics.seq_s", "s"),
    ("semantics.ite_s", "s"),
    ("semantics.if_s", "s"),
    ("semantics.while_s", "s"),
    ("semantics.denote_calls", "count"),
    ("semantics.relation_pairs", "count"),
    ("semantics.denote_peak_mb", "MB"),
    ("semantics.useful_state_ratio", "ratio"),
    ("predicates.pred_to_set_s", "s"),
    ("predicates.pred_to_set_calls", "count"),
    ("hoare.wp_s", "s"),
    ("hoare.verify_wp_s", "s"),
    ("hoare.check_s", "s"),
    ("hoare.states_checked", "count"),
    ("hoare.pairs_checked", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("specfile.load_task_s", "s"),
    ("state_space.build_space_s", "s"),
    ("state_space.states", "count"),
    ("formulas.eval_sformula_s", "s"),
    ("formulas.eval_sformula_calls", "count"),
    ("formulas.env_check_s", "s"),
    ("laws.check_law_s", "s"),
    ("laws.triple_laws_s", "s"),
    ("laws.schema_laws_s", "s"),
    ("laws.check_total_s", "s"),
    ("laws.wp_s", "s"),
    ("laws.binding_s", "s"),
    ("laws.trials_boundary", "count"),
    ("laws.trials_exhaustive", "count"),
    ("laws.trials_random", "count"),
    ("rng.derive_seed_s", "s"),
    ("rng.derive_seed_calls", "count"),
    ("trace.overhead_pct", "%"),
)

# The traced functions each metric reads; when all are absent, so is it.
_SOURCES = {
    "semantics.denote_s": ("semantics.denote",),
    "semantics.assign_s": ("semantics.denote_assign",),
    "semantics.decl_s": ("semantics.denote_decl",),
    "semantics.seq_s": ("semantics.denote_seq",),
    "semantics.ite_s": ("semantics.denote_ite",),
    "semantics.if_s": ("semantics.denote_if",),
    "semantics.while_s": ("semantics.denote_while",),
    "semantics.denote_calls": ("semantics.denote",),
    "semantics.relation_pairs": ("semantics.denote",),
    "semantics.denote_peak_mb": ("semantics.denote",),
    "semantics.useful_state_ratio": ("semantics.denote",),
    "predicates.pred_to_set_s": ("predicates.pred_to_set",),
    "predicates.pred_to_set_calls": ("predicates.pred_to_set",),
    "hoare.wp_s": ("hoare.wp",),
    "hoare.verify_wp_s": ("hoare.wp",),
    "hoare.check_s": ("hoare.check_total", "hoare.check_partial"),
    "specfile.load_task_s": ("specfile.load_task",),
    "state_space.build_space_s": ("state_space.build_space",),
    "state_space.states": ("state_space.build_space",),
    "formulas.eval_sformula_s": ("formulas.eval_sformula",),
    "formulas.eval_sformula_calls": ("formulas.eval_sformula",),
    "formulas.env_check_s": ("formulas.symbol_arities", "formulas.free_vars"),
    "laws.check_law_s": ("laws.check_law",),
    "laws.triple_laws_s": ("laws.check_law",),
    "laws.schema_laws_s": ("laws.check_law",),
    "laws.check_total_s": ("hoare.check_total",),
    "laws.wp_s": ("hoare.wp",),
    "laws.binding_s": ("laws._boundary_envs", "laws._exhaustive_envs", "laws._random_env"),
    "laws.trials_boundary": ("laws._boundary_envs",),
    "laws.trials_exhaustive": ("laws._exhaustive_envs",),
    "laws.trials_random": ("laws._random_env",),
    "rng.derive_seed_s": ("rng.derive_seed",),
    "rng.derive_seed_calls": ("rng.derive_seed",),
}


def layer_metrics(t: Tracer, run: dict) -> tuple[dict, list[str]]:
    """Metric values from a tracer and the run's own tallies (`run` holds
    cli_self_s, output_bytes, states_checked, pairs_checked,
    verify_states_denoted, overhead_pct and denote_peak_bytes).  Returns the
    values and the names of absent metrics, which read 0."""
    outer, self_s, calls, counts = t.total, t.self_s, t.calls, t.counts
    values = {
        "semantics.denote_s": outer("semantics.denote"),
        "semantics.assign_s": self_s("semantics.denote_assign"),
        "semantics.decl_s": self_s("semantics.denote_decl"),
        "semantics.seq_s": self_s("semantics.denote_seq"),
        "semantics.ite_s": self_s("semantics.denote_ite"),
        "semantics.if_s": self_s("semantics.denote_if"),
        "semantics.while_s": self_s("semantics.denote_while"),
        "semantics.denote_calls": calls("semantics.denote"),
        "semantics.relation_pairs": counts["relation_pairs"],
        "semantics.denote_peak_mb": run["denote_peak_bytes"] / 2**20,
        "semantics.useful_state_ratio": (
            run["states_checked"] / run["verify_states_denoted"] if run["verify_states_denoted"] else 0.0
        ),
        "predicates.pred_to_set_s": outer("predicates.pred_to_set"),
        "predicates.pred_to_set_calls": calls("predicates.pred_to_set"),
        "hoare.wp_s": outer("hoare.wp", ("cli",)),
        "hoare.verify_wp_s": outer("hoare.wp", ("verify",)),
        "hoare.check_s": outer("hoare.check_total", ("cli", "verify"))
        + outer("hoare.check_partial", ("cli", "verify")),
        "hoare.states_checked": run["states_checked"],
        "hoare.pairs_checked": run["pairs_checked"],
        "cli.self_s": run["cli_self_s"],
        "cli.output_bytes": run["output_bytes"],
        "specfile.load_task_s": outer("specfile.load_task"),
        "state_space.build_space_s": outer("state_space.build_space"),
        "state_space.states": counts["states"],
        "formulas.eval_sformula_s": outer("formulas.eval_sformula"),
        "formulas.eval_sformula_calls": calls("formulas.eval_sformula"),
        "formulas.env_check_s": outer("formulas.symbol_arities") + outer("formulas.free_vars"),
        "laws.check_law_s": outer("laws.check_law"),
        "laws.triple_laws_s": counts["law_s.triple"],
        "laws.schema_laws_s": counts["law_s.schema"],
        "laws.check_total_s": outer("hoare.check_total", ("law",)),
        "laws.wp_s": outer("hoare.wp", ("law",)),
        "laws.binding_s": outer("laws._boundary_envs")
        + outer("laws._exhaustive_envs")
        + outer("laws._random_env"),
        "laws.trials_boundary": counts["laws._boundary_envs"],
        "laws.trials_exhaustive": counts["laws._exhaustive_envs"],
        "laws.trials_random": counts["laws._random_env"],
        "rng.derive_seed_s": outer("rng.derive_seed"),
        "rng.derive_seed_calls": calls("rng.derive_seed"),
        "trace.overhead_pct": run["overhead_pct"],
    }
    absent = [
        name
        for name, sources in _SOURCES.items()
        if all(source in t.absent for source in sources)
    ]
    for name in absent:
        values[name] = 0
    return values, absent
