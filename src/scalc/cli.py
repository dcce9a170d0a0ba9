"""Command-line front end.

Five commands: `verify` decides a triple and prints the report, `wp` lists
the weakest-precondition set, `laws` runs the law suite, `export-smt`
writes the unbounded-integer condition, and `dump-relation` prints the
denoted relation as index pairs.

Exit codes: 0 on success (triple holds / no law violations), 1 when a
verdict is negative, 2 for usage, parse, or input errors, and 141 when the
reader of stdout closes it early.  Reports go to
stdout; diagnostics go to stderr.  Output is deterministic for identical
inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import __version__
from .errors import ScalcError
from .export import export_vc
from .hoare import program_wp
from .hoare import verify as run_verify
from .laws import (
    DEFAULT_SEED,
    DEFAULT_SIZES,
    DEFAULT_TRIALS,
    LAWS,
    check_law,
    registered_laws,
)
from .semantics import successors
from .specfile import SpecTask, load_task
from .state_space import DEFAULT_MAX_STATES, build_space, index_to_state


def _resolve_max_states(args, task: SpecTask) -> int:
    if args.max_states is not None:
        return args.max_states
    env = os.environ.get("SCALC_MAX_STATES")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ScalcError(f"SCALC_MAX_STATES must be an integer, got '{env}'") from None
        if value <= 0:
            raise ScalcError("SCALC_MAX_STATES must be positive")
        return value
    if task.spec.max_states is not None:
        return task.spec.max_states
    return DEFAULT_MAX_STATES


def _require_post(task: SpecTask):
    if task.post is None:
        raise ScalcError(f"{task.spec.origin}: no [post] section; this command needs one")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_verify(args) -> int:
    task = load_task(args.spec)
    _require_post(task)
    mode = args.mode or task.spec.mode
    space = build_space(task.universe, _resolve_max_states(args, task))
    report = run_verify(task.program, task.pre, task.post, mode, space)
    _emit(report.to_json_dict())
    return 0 if report.verdict.holds else 1


def cmd_wp(args) -> int:
    task = load_task(args.spec)
    _require_post(task)
    space = build_space(task.universe, _resolve_max_states(args, task))
    result = program_wp(task.program, task.post, space)
    shown = [
        index_to_state(space, i).as_dict()
        for i in itertools.islice(result.indices(), args.limit)
    ]
    _emit(
        {
            "count": result.count(),
            "space_size": space.size,
            "states": shown,
            "truncated": result.count() > len(shown),
        }
    )
    return 0


def cmd_laws(args) -> int:
    if args.list:
        for law in LAWS.values():
            print(json.dumps({"law": law.name, "title": law.title}))
        return 0
    if args.law is not None:
        names = [args.law]
    else:
        names = [law.name for law in registered_laws()]
    sizes = tuple(args.size) if args.size else DEFAULT_SIZES
    failed = False
    for name in names:
        result = check_law(
            name,
            trials=args.trials,
            sizes=sizes,
            seed=args.seed,
            exhaustive_only=args.exhaustive,
        )
        print(
            json.dumps(
                {"law": result.law, "trials": result.trials, "violations": result.violation_count}
            )
        )
        if not result.ok:
            failed = True
    return 1 if failed else 0


def cmd_export_smt(args) -> int:
    task = load_task(args.spec)
    _require_post(task)
    mode = args.mode or task.spec.mode
    unroll = args.unroll if args.unroll is not None else task.spec.unroll
    doc = export_vc(
        task.program,
        task.pre,
        task.post,
        task.variables,
        mode=mode,
        unroll=unroll,
        allow_partial_unroll=args.allow_partial_unroll,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc.text())
        _emit(
            {
                "output": args.output,
                "logic": doc.logic,
                "mode": doc.mode,
                "unroll": doc.unroll,
                "sha256": doc.program_sha256,
            }
        )
    else:
        sys.stdout.write(doc.text())
    return 0


def cmd_dump_relation(args) -> int:
    task = load_task(args.spec)
    space = build_space(task.universe, _resolve_max_states(args, task))
    finals_of = successors(task.program, space)
    for i in range(space.size):
        for j in finals_of(i):
            sys.stdout.write(f"[{i}, {j}]\n")
    return 0


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


@functools.cache  # parse_args leaves the parser as it found it, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalc",
        description="Finite-state checker for pre/post specifications of small imperative programs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_arg(p):
        p.add_argument("spec", help="path to a spec file")

    def common_flags(p, with_mode=True):
        if with_mode:
            p.add_argument("--mode", choices=("total", "partial"), help="override the spec's mode")
        p.add_argument(
            "--max-states",
            type=_positive_int,
            help="refuse state spaces larger than this (env: SCALC_MAX_STATES)",
        )

    p = sub.add_parser("verify", help="decide the triple in the spec file")
    spec_arg(p)
    common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wp", help="list the weakest-precondition set for the spec's postcondition")
    spec_arg(p)
    common_flags(p, with_mode=False)
    p.add_argument("--limit", type=_nonneg_int, default=10, help="states to list before truncating")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("laws", help="run the law suite")
    p.add_argument("--law", help="check one law by id instead of the whole catalog")
    p.add_argument("--trials", type=_nonneg_int, default=DEFAULT_TRIALS, help="random trials per size")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed for random bindings")
    p.add_argument(
        "--size",
        action="append",
        type=_positive_int,
        help="space size to test; repeatable (default 1 2 3 4)",
    )
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate every binding instead of boundary plus random trials",
    )
    p.add_argument("--list", action="store_true", help="list law ids and titles, check nothing")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("export-smt", help="emit the condition as SMT-LIB 2 over unbounded integers")
    spec_arg(p)
    p.add_argument("--mode", choices=("total", "partial"), help="override the spec's mode")
    p.add_argument("--unroll", type=_nonneg_int, help="loop expansion bound (default from spec)")
    p.add_argument(
        "--allow-partial-unroll",
        action="store_true",
        help="accept loops by assuming away executions beyond the unroll bound",
    )
    p.add_argument("-o", "--output", help="write the document here and print a summary")
    p.set_defaults(func=cmd_export_smt)

    p = sub.add_parser("dump-relation", help="print the denoted relation as state-index pairs")
    spec_arg(p)
    common_flags(p, with_mode=False)
    p.set_defaults(func=cmd_dump_relation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ScalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (`scalc laws | head -1`); send what is
        # still buffered to devnull, so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as for a process the signal ended


if __name__ == "__main__":
    sys.exit(main())
