"""The CLI's stdout bytes and exit codes on every `specs/` file and on the
law suite, pinned.

`tests/golden/<spec>.<command>.out` holds the stdout of one command,
`tests/golden/laws.<case>.out` that of one `scalc laws` run, and
`tests/golden/exit_codes.json` their exit codes.  A change that alters any of
them on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff shows what moved.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from scalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SPECS = sorted((ROOT / "specs").glob("*.spec"))
COMMANDS = {
    "verify-total": ["verify", "--mode", "total"],
    "verify-partial": ["verify", "--mode", "partial"],
    "wp": ["wp", "--limit", "10"],
    "dump-relation": ["dump-relation"],
    "export-smt": ["export-smt", "--allow-partial-unroll", "--unroll", "2"],
}
CASES = [(spec, command) for spec in SPECS for command in COMMANDS]
NEGATIVE_CONTROLS = (
    "negative-control-1",
    "negative-control-2",
    "thm3.6d-variant",
    "thm3.6e-converse",
    "t11-variant",
    "t20-variant",
)
LAW_CASES = {
    "laws.list.out": ["laws", "--list"],
    "laws.trials-20.out": ["laws", "--trials", "20"],
    "laws.exhaustive.out": ["laws", "--exhaustive", "--size", "1", "--size", "2"],
    **{f"laws.{law}.out": ["laws", "--law", law, "--trials", "50"] for law in NEGATIVE_CONTROLS},
}


def run_cli(spec: Path, command: str) -> tuple[int, bytes]:
    return run_argv(COMMANDS[command][:1] + [str(spec)] + COMMANDS[command][1:])


def run_argv(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def golden_name(spec: Path, command: str) -> str:
    return f"{spec.stem}.{command}.out"


@pytest.mark.parametrize(
    "spec,command", CASES, ids=[golden_name(spec, command) for spec, command in CASES]
)
def test_cli_output_matches_golden(spec, command):
    code, out = run_cli(spec, command)
    name = golden_name(spec, command)
    assert out == (GOLDEN / name).read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


@pytest.mark.parametrize("name", LAW_CASES)
def test_laws_output_matches_golden(name):
    code, out = run_argv(LAW_CASES[name])
    assert out == (GOLDEN / name).read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for spec, command in CASES:
        name = golden_name(spec, command)
        codes[name], out = run_cli(spec, command)
        (GOLDEN / name).write_bytes(out)
    for name, argv in LAW_CASES.items():
        codes[name], out = run_argv(argv)
        (GOLDEN / name).write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
