import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from scalc import state_space
from scalc.cli import main
from scalc.errors import SpaceTooLargeError
from scalc.export import MAX_EXPANDED_STATEMENTS
from scalc.laws import DEFAULT_SEED, LAWS, check_law
from scalc.specfile import load_task
from scalc.syntax import MAX_NESTING, Seq, expr_to_str, parse_program, pretty_print

from test_laws import count_builds

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
EX41 = str(SPECS / "ex41.spec")
EX41_BAD = str(SPECS / "ex41_bad.spec")
EX42 = str(SPECS / "ex42.spec")
DIVERGE = str(SPECS / "diverge.spec")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SCALC_MAX_STATES", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """The environment of a `python -m scalc` child process."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("SCALC_MAX_STATES", None)
    return env


class TestVerify:
    def test_holds(self, capsys):
        code, out, err = run(capsys, "verify", EX41)
        assert code == 0
        assert err == ""
        assert json.loads(out) == {
            "mode": "total",
            "holds": True,
            "counterexample": None,
            "stats": {"states_checked": 256, "pairs_checked": 256},
        }

    def test_failure_reports_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", EX41_BAD)
        assert code == 1
        report = json.loads(out)
        assert report["holds"] is False
        assert report["counterexample"] == {
            "kind": "BadSuccessor",
            "initial": {"a": -128},
            "final": {"a": 10},
        }

    def test_mode_flag_overrides_spec(self, capsys):
        code, out, _ = run(capsys, "verify", EX41_BAD, "--mode", "partial")
        assert code == 1
        assert json.loads(out)["counterexample"]["kind"] == "PartialViolation"

    def test_divergence_split_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", DIVERGE)
        assert code == 1
        report = json.loads(out)
        assert report["counterexample"] == {
            "kind": "NoSuccessor",
            "initial": {"i": 0},
            "final": None,
        }
        code, out, _ = run(capsys, "verify", DIVERGE, "--mode", "partial")
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_missing_post_rejected(self, capsys, tmp_path):
        spec = tmp_path / "nopost.spec"
        spec.write_text("[program]\n;\n")
        code, out, err = run(capsys, "verify", str(spec))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "no [post] section" in err


class TestWp:
    def test_branching_example(self, capsys):
        code, out, _ = run(capsys, "wp", EX41)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 256
        assert data["space_size"] == 256
        assert len(data["states"]) == 10
        assert data["truncated"] is True

    def test_limit_flag(self, capsys):
        code, out, _ = run(capsys, "wp", EX41, "--limit", "3")
        assert len(json.loads(out)["states"]) == 3
        code, out, _ = run(capsys, "wp", EX41, "--limit", "0")
        data = json.loads(out)
        assert data["states"] == [] and data["truncated"] is True

    def test_skip_statement_wp_is_the_postcondition(self, capsys, tmp_path):
        spec = tmp_path / "skip.spec"
        spec.write_text("[vars]\nx: int 0..3\n[program]\n;\n[post]\nx == 2\n")
        code, out, _ = run(capsys, "wp", str(spec))
        assert code == 0
        data = json.loads(out)
        assert data == {
            "count": 1,
            "space_size": 4,
            "states": [{"x": 2}],
            "truncated": False,
        }


class TestLaws:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "laws", "--list")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == len(LAWS)
        assert {"law", "title"} == set(lines[0])
        names = {entry["law"] for entry in lines}
        assert "thm3.5" in names and "negative-control-1" in names

    def test_single_law_matches_direct_call(self, capsys):
        code, out, _ = run(
            capsys, "laws", "--law", "thm3.5", "--size", "1", "--size", "2",
            "--trials", "5", "--seed", "7",
        )
        assert code == 0
        direct = check_law("thm3.5", trials=5, sizes=(1, 2), seed=7)
        assert json.loads(out) == {
            "law": "thm3.5",
            "trials": direct.trials,
            "violations": 0,
        }

    def test_exhaustive_run(self, capsys):
        code, out, _ = run(
            capsys, "laws", "--law", "thm3.5", "--size", "2", "--exhaustive"
        )
        assert code == 0
        assert json.loads(out)["trials"] == 64

    def test_negative_control_fails_the_run(self, capsys):
        code, out, _ = run(
            capsys, "laws", "--law", "negative-control-1", "--size", "1",
            "--trials", "0",
        )
        assert code == 1
        assert json.loads(out)["violations"] > 0

    def test_a_run_builds_no_violation_instance(self, capsys, monkeypatch):
        built = count_builds(monkeypatch)
        code, out, _ = run(capsys, "laws", "--law", "t11-variant", "--trials", "2000")
        assert code == 1
        assert built == {"_decode": 0, "LawInstance": 0}
        assert json.loads(out)["violations"] == len(check_law("t11-variant", trials=2000).violations)

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "laws", "--law", "thm42")
        assert code == 2
        assert "error:" in err

    def test_oversized_exhaustive_request_is_an_error(self, capsys):
        code, out, err = run(capsys, "laws", "--size", "9", "--exhaustive")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_full_suite_smoke(self, capsys):
        code, out, _ = run(capsys, "laws", "--trials", "1", "--size", "1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 47
        assert all(entry["violations"] == 0 for entry in lines)


class TestExportSmt:
    def test_raw_document_on_stdout(self, capsys):
        code, out, err = run(capsys, "export-smt", EX41)
        assert code == 0
        assert err == ""
        assert out.startswith("; negated correctness condition")
        assert out.endswith("(check-sat)\n")

    def test_loop_needs_explicit_unrolling(self, capsys):
        code, _, err = run(capsys, "export-smt", EX42)
        assert code == 2
        assert "bounded expansion" in err

    def test_output_file_and_summary(self, capsys, tmp_path):
        target = tmp_path / "vc.smt2"
        code, out, _ = run(
            capsys, "export-smt", EX42, "--allow-partial-unroll", "-o", str(target)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["output"] == str(target)
        assert summary["logic"] == "QF_NIA"
        assert summary["mode"] == "total"
        assert summary["unroll"] == 3  # from the spec's [options]
        assert len(summary["sha256"]) == 64
        text = target.read_text()
        assert text.endswith("(check-sat)\n")
        assert f"; program-sha256: {summary['sha256']}" in text

    def test_unroll_flag_overrides_spec(self, capsys, tmp_path):
        target = tmp_path / "vc.smt2"
        code, out, _ = run(
            capsys, "export-smt", EX42, "--allow-partial-unroll",
            "--unroll", "5", "-o", str(target),
        )
        assert code == 0
        assert json.loads(out)["unroll"] == 5

    def test_an_expansion_past_the_size_limit_is_one_error_line(self, capsys, tmp_path):
        # 49 nested loops copied 3 times each would emit about 3**49
        # statements; the child's address space is capped, so a missing
        # check fails fast instead of filling the machine's memory
        spec = tmp_path / "nested.spec"
        spec.write_text(nesting_spec("while (i >= 0) " * 49 + "i = i;"))
        argv = ["export-smt", str(spec), "--allow-partial-unroll", "--unroll", "3"]
        proc = subprocess.run(
            [sys.executable, "-m", "scalc", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-500:]
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert f"more than {MAX_EXPANDED_STATEMENTS} statements" in proc.stderr
        start = time.perf_counter()
        assert run(capsys, *argv)[0] == 2
        assert time.perf_counter() - start < 1
        # one copy of each body is small
        code, out, err = run(capsys, *argv[:-1], "1")
        assert (code, err) == (0, "") and out.endswith("(check-sat)\n")


class TestDumpRelation:
    def test_branching_example(self, capsys):
        code, out, _ = run(capsys, "dump-relation", EX41)
        assert code == 0
        pairs = [json.loads(line) for line in out.splitlines()]
        assert len(pairs) == 256
        assert pairs == sorted(pairs)
        # every initial state ends at a=10, state index 138
        assert {j for _, j in pairs} == {138}

    def test_divergent_states_have_no_pairs(self, capsys):
        code, out, _ = run(capsys, "dump-relation", DIVERGE)
        assert code == 0
        assert out == ""


LONG_STEPS = ("a = a + 1;", "int b;", "a = a - 1;", "if (b > 1) a = a + b - b;")


class TestLongProgram:
    """A program far longer than the interpreter's recursion limit."""

    TEXT = "\n".join(LONG_STEPS[k % len(LONG_STEPS)] for k in range(1200))

    @pytest.fixture
    def long_spec(self, tmp_path):
        spec = tmp_path / "long.spec"
        spec.write_text(
            "[vars]\na: int 0..7\nb: int 0..3\n[program]\n" + self.TEXT + "\n[pre]\na < 7\n[post]\na < 7\n"
        )
        return str(spec)

    def test_parses_to_one_sequence_that_prints_back(self):
        ast = parse_program(self.TEXT, predeclared=("a", "b"))
        assert isinstance(ast, Seq) and len(ast.parts) == 1200
        assert parse_program(pretty_print(ast), predeclared=("a", "b")) == ast

    @pytest.mark.parametrize("command", ["verify", "wp", "dump-relation", "export-smt"])
    def test_runs_without_a_traceback(self, capsys, long_spec, command):
        code, out, err = run(capsys, command, long_spec)
        assert code in ((0,) if command == "export-smt" else (0, 1))
        assert err == ""
        if command == "export-smt":
            # a's initial constant, one per assignment to a, one per if merge
            assert out.endswith("(check-sat)\n")
            assert out.count("(declare-const a!") == 1 + 900 + 300
        elif command == "dump-relation":
            # a = 7 is stuck at the first step; every other state keeps a
            # and ends with each value of b
            pairs = [json.loads(line) for line in out.splitlines()]
            assert pairs == [[4 * a + b, 4 * a + c] for a in range(7) for b in range(4) for c in range(4)]
        else:
            json.loads(out)


class TestConsecutiveCalls:
    """`main` parses every call afresh: nothing one call sets leaks into
    the next in the same process."""

    def test_wp_limit_returns_to_its_default(self, capsys):
        _, out, _ = run(capsys, "wp", EX41, "--limit", "3")
        assert len(json.loads(out)["states"]) == 3
        _, out, _ = run(capsys, "wp", EX41)
        assert len(json.loads(out)["states"]) == 10

    def test_repeated_size_flags_do_not_accumulate(self, capsys):
        for size in (2, 3):
            code, out, _ = run(capsys, "laws", "--law", "t2", "--size", str(size), "--trials", "5")
            assert code == 0
            alone = check_law("t2", trials=5, sizes=(size,), seed=DEFAULT_SEED)
            assert json.loads(out)["trials"] == alone.trials


@pytest.fixture
def states_built(monkeypatch):
    """Every call of `index_to_state`, through each module that binds it."""
    calls = []
    original = state_space.index_to_state

    def counting(space, index):
        calls.append(index)
        return original(space, index)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("scalc") and getattr(module, "index_to_state", None) is original:
            monkeypatch.setattr(module, "index_to_state", counting)
    return calls


class TestNoStatesOnTheHotPath:
    """The whole-space commands evaluate on state indices; a `State` is
    built only for what is printed."""

    @pytest.fixture
    def count_spec(self, tmp_path):
        spec = tmp_path / "count.spec"
        spec.write_text(
            "[vars]\ni: int 0..7\nn: int 0..7\nf: int 0..63\n"
            "[program]\nwhile (i < n) { f = f + i; i = i + 1; }\nif (f > 8) { f = f - 8; }\n"
            "[pre]\ntrue\n[post]\nf <= 39\n"
        )
        return str(spec)

    def test_wp_builds_only_the_listed_states(self, capsys, states_built, count_spec):
        code, out, _ = run(capsys, "wp", count_spec, "--limit", "10")
        assert code == 0 and json.loads(out)["space_size"] == 4096
        assert len(states_built) <= 10

    def test_dump_relation_builds_none(self, capsys, states_built, count_spec):
        code, out, _ = run(capsys, "dump-relation", count_spec)
        assert code == 0 and out.startswith("[0, 0]\n[1, 1]\n")
        assert states_built == []

    def test_verify_builds_only_the_counterexample(self, capsys, states_built, count_spec):
        code, out, _ = run(capsys, "verify", count_spec, "--mode", "partial")
        assert code == 1 and json.loads(out)["counterexample"]["kind"] == "PartialViolation"
        assert len(states_built) <= 2


class TestMaxStates:
    def test_flag_limits_space(self, capsys):
        code, _, err = run(capsys, "verify", EX41, "--max-states", "10")
        assert code == 2
        assert "error:" in err

    def test_env_limits_space(self, capsys, monkeypatch):
        monkeypatch.setenv("SCALC_MAX_STATES", "10")
        code, _, err = run(capsys, "verify", EX41)
        assert code == 2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SCALC_MAX_STATES", "10")
        code, _, _ = run(capsys, "verify", EX41, "--max-states", "1000000")
        assert code == 0

    def test_env_beats_spec_option(self, capsys, monkeypatch, tmp_path):
        spec = tmp_path / "limited.spec"
        spec.write_text(
            "[vars]\nx: int 0..3\n[program]\n;\n[post]\ntrue\n[options]\nmax_states = 2\n"
        )
        code, _, _ = run(capsys, "verify", str(spec))
        assert code == 2
        monkeypatch.setenv("SCALC_MAX_STATES", "100")
        code, _, _ = run(capsys, "verify", str(spec))
        assert code == 0

    @pytest.mark.parametrize("low, high", [(0, 4_000_000), (0, 2**32 - 1), (-(2**63), 2**63 - 1)])
    def test_an_oversized_range_is_refused_before_it_is_built(self, capsys, tmp_path, low, high):
        spec = tmp_path / "wide.spec"
        spec.write_text(f"[vars]\nx: int {low}..{high}\n[program]\n;\n[post]\ntrue\n")
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "verify", str(spec), "--max-states", "1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (2, f"error: {SpaceTooLargeError(high - low + 1, 1000)}\n")
        assert peak <= 5 << 20, peak

    def test_a_range_past_64_bits_is_a_spec_error(self, capsys, tmp_path):
        spec = tmp_path / "wide.spec"
        spec.write_text("[vars]\nx: int 0..9223372036854775808\n[program]\n;\n[post]\ntrue\n")
        code, _, err = run(capsys, "verify", str(spec))
        assert code == 2
        assert f"{spec}:2: range 0..9223372036854775808 exceeds 64 bits" in err

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SCALC_MAX_STATES", "many")
        code, _, err = run(capsys, "verify", EX41)
        assert code == 2
        assert "SCALC_MAX_STATES" in err


class TestUsageErrors:
    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent.spec")
        assert code == 2
        assert "error:" in err

    def test_spec_parse_error(self, capsys, tmp_path):
        spec = tmp_path / "broken.spec"
        spec.write_text("[vars]\nx is int\n[program]\n;\n")
        code, _, err = run(capsys, "verify", str(spec))
        assert code == 2
        assert "broken.spec:2" in err

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_negative_limit_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wp", EX41, "--limit", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", EX41], ["wp", EX41], ["laws", "--list"], ["export-smt", EX41], ["dump-relation", EX41]],
        ids=lambda argv: argv[0],
    )
    def test_json_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --json" in captured.err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("scalc ")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "verify", EX41_BAD)
            outputs.add(out)
        assert len(outputs) == 1
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "laws", "--law", "t1", "--trials", "10", "--size", "2")
            outputs.add(out)
        assert len(outputs) == 1


class TestBrokenPipe:
    """A reader that closes stdout after the first line ends the run with
    exit 141 and nothing on stderr.  Each command still has output to write
    after that line: 2**14 relation pairs overflow any pipe buffer, and each
    law at 20 000 trials takes long enough that the close comes first."""

    def run_closing_after_one_line(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "scalc", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(PYTHONUNBUFFERED="1"),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return first, proc.wait(timeout=60), err

    def test_laws(self):
        first, code, err = self.run_closing_after_one_line(["laws", "--trials", "20000"])
        assert json.loads(first)["law"] == "thm3.1a"
        assert (code, err) == (141, b"")

    def test_dump_relation(self, tmp_path):
        spec = tmp_path / "wide.spec"
        spec.write_text("[vars]\na: int 0..16383\n\n[program]\n;\n\n[post]\ntrue\n")
        first, code, err = self.run_closing_after_one_line(["dump-relation", str(spec)])
        assert first == b"[0, 0]\n"
        assert (code, err) == (141, b"")


def nesting_spec(program="i = i;", pre="true", post="true"):
    return f"[vars]\ni: int 0..3\n\n[program]\n{program}\n\n[pre]\n{pre}\n\n[post]\n{post}\n"


# each construct repeated until the deepest path through the spec's ASTs
# has `levels` nodes (a parenthesized group counting as one)
NESTED = {
    # the assignment, levels - 2 additions, then `i`
    "sum": lambda levels: nesting_spec("i = i" + " + 0" * (levels - 2) + ";"),
    # levels - 2 conjunctions, then a comparison and `i`
    "and": lambda levels: nesting_spec(pre=" && ".join(["i >= 0"] * (levels - 1))),
    # the assignment, levels - 2 groups, then `i`
    "parens": lambda levels: nesting_spec("i = " + "(" * (levels - 2) + "i" + ")" * (levels - 2) + ";"),
    # levels - 2 conditionals, then the last one's comparison and `i`
    "if": lambda levels: nesting_spec("if (i >= 0) " * (levels - 2) + ";"),
    # levels - 2 negations, then a comparison and `i`
    "not": lambda levels: nesting_spec(post="!" * (levels - 2) + "i >= 0"),
}
# the same constructs at the sizes that once ended in a RecursionError
OVERSIZED = {
    "sum": NESTED["sum"](1501),
    "and": NESTED["and"](1501),
    "parens": NESTED["parens"](302),
    "if": NESTED["if"](602),
    "not": NESTED["not"](1502),
}
NESTING_COMMANDS = (["verify"], ["wp"], ["dump-relation"], ["export-smt"])


class TestNestingBound:
    @pytest.mark.parametrize("construct", sorted(NESTED))
    def test_the_deepest_accepted_nesting_runs_everywhere(self, capsys, tmp_path, construct):
        spec = tmp_path / "deep.spec"
        spec.write_text(NESTED[construct](MAX_NESTING))
        for argv in NESTING_COMMANDS:
            code, _, err = run(capsys, *argv, str(spec))
            assert code in (0, 1) and err == "", (argv, err)
        task = load_task(str(spec))
        assert pretty_print(task.program) and expr_to_str(task.pre) and expr_to_str(task.post)

    @pytest.mark.parametrize("construct", sorted(NESTED))
    @pytest.mark.parametrize("size", ["one-deeper", "oversized"])
    def test_deeper_nesting_is_one_error_line(self, capsys, tmp_path, construct, size):
        spec = tmp_path / "deep.spec"
        spec.write_text(NESTED[construct](MAX_NESTING + 1) if size == "one-deeper" else OVERSIZED[construct])
        for argv in NESTING_COMMANDS:
            code, out, err = run(capsys, *argv, str(spec))
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"nested deeper than {MAX_NESTING} levels" in err
