import pytest

from scalc.errors import SpecFileError
from scalc.predicates import BoolConst, Cmp, Const, Var
from scalc.specfile import (
    DEFAULT_INT_RANGE,
    VarSpec,
    build_task,
    load_spec,
    load_task,
    parse_spec_text,
)
from scalc.state_space import Domain, build_space

FULL = """\
# factorial-style task
[vars]
i: int 0..7
n: int 0..7
f: int 0..31

[program]
while (i <= n) {
    f*=i;   // runs n-i+1 times
    i++;
}

[pre]
i == 2 && n == 4 && f == 1

[post]
f == 24

[options]
mode = partial
unroll = 3
max_states = 4096
"""


class TestParsing:
    def test_full_document(self):
        spec = parse_spec_text(FULL, origin="full.spec")
        assert spec.variables == (
            VarSpec("i", "int", 0, 7),
            VarSpec("n", "int", 0, 7),
            VarSpec("f", "int", 0, 31),
        )
        assert "f*=i;   // runs n-i+1 times" in spec.program_text
        assert spec.pre_text == "i == 2 && n == 4 && f == 1"
        assert spec.post_text == "f == 24"
        assert spec.mode == "partial"
        assert spec.unroll == 3
        assert spec.max_states == 4096
        assert spec.origin == "full.spec"

    def test_defaults(self):
        spec = parse_spec_text("[program]\n;\n")
        assert spec.pre_text == "true"
        assert spec.post_text is None
        assert spec.mode == "total"
        assert spec.unroll == 0
        assert spec.max_states is None
        assert spec.origin == "<spec>"

    def test_default_int_range_and_bool(self):
        spec = parse_spec_text("[vars]\nx: int\nb: bool\n[program]\n;\n")
        assert spec.variables == (
            VarSpec("x", "int", *DEFAULT_INT_RANGE),
            VarSpec("b", "bool", 0, 1),
        )

    def test_negative_ranges(self):
        spec = parse_spec_text("[vars]\nx: int -8..-1\n[program]\n;\n")
        assert spec.variables == (VarSpec("x", "int", -8, -1),)

    def test_comments_ignored_outside_program(self):
        spec = parse_spec_text(
            "# top\n[vars]\n# between\nx: int 0..1\n[program]\n# kept\n;\n[pre]\n# gone\nx == 0\n"
        )
        assert spec.pre_text == "x == 0"
        assert "# kept" in spec.program_text

    def test_multiline_predicates_joined(self):
        spec = parse_spec_text("[program]\n;\n[pre]\nx == 0 &&\ny == 1\n")
        assert spec.pre_text == "x == 0 && y == 1"

    def test_empty_post_section_means_no_post(self):
        spec = parse_spec_text("[program]\n;\n[post]\n")
        assert spec.post_text is None


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[nope]\n[program]\n;\n", "unknown section [nope]"),
            ("[vars]\n[vars]\n[program]\n;\n", "duplicate section [vars]"),
            ("x: int\n[program]\n;\n", "content before the first section"),
            ("[vars]\nx int\n[program]\n;\n", "bad variable entry"),
            ("[vars]\nx: float\n[program]\n;\n", "bad variable entry"),
            ("[vars]\nx: int\nx: int\n[program]\n;\n", "listed twice"),
            ("[vars]\nb: bool 0..1\n[program]\n;\n", "bool variables take no range"),
            ("[vars]\nx: int 5..2\n[program]\n;\n", "empty range 5..2"),
            ("[vars]\nx: int 0..9223372036854775808\n[program]\n;\n", "range 0..9223372036854775808 exceeds 64 bits"),
            ("[vars]\nx: int -9223372036854775809..0\n[program]\n;\n", "range -9223372036854775809..0 exceeds 64 bits"),
            ("[options]\nmode total\n[program]\n;\n", "bad option line"),
            ("[options]\nmode = sideways\n[program]\n;\n", "mode must be total or partial"),
            ("[options]\nunroll = -1\n[program]\n;\n", "unroll must be a nonnegative integer"),
            ("[options]\nunroll = x\n[program]\n;\n", "unroll must be a nonnegative integer"),
            ("[options]\nmax_states = 0\n[program]\n;\n", "max_states must be a positive"),
            ("[options]\nverbose = 1\n[program]\n;\n", "unknown option 'verbose'"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(SpecFileError, match=fragment.replace("[", r"\[")):
            parse_spec_text(text)

    def test_missing_program_section(self):
        with pytest.raises(SpecFileError, match=r"missing \[program\] section"):
            parse_spec_text("[vars]\nx: int\n")

    def test_errors_carry_origin_and_line(self):
        with pytest.raises(SpecFileError, match="bad.spec:2:"):
            parse_spec_text("[vars]\noops\n[program]\n;\n", origin="bad.spec")

    def test_unreadable_file(self):
        with pytest.raises(SpecFileError, match="cannot read spec file"):
            load_spec("/nonexistent/path.spec")


class TestBuildTask:
    def test_full_task(self):
        task = build_task(parse_spec_text(FULL))
        assert build_space(task.universe).size == 8 * 8 * 32
        assert task.variables == (("i", "int"), ("n", "int"), ("f", "int"))
        assert task.post == Cmp("==", Var("f"), Const(24))
        assert task.spec.mode == "partial"

    def test_program_declared_vars_get_default_domains(self):
        task = build_task(
            parse_spec_text("[vars]\nx: int 0..1\n[program]\nint y = 1; bool c;\n")
        )
        assert task.variables == (("x", "int"), ("y", "int"), ("c", "bool"))
        assert task.universe.domain("y") == Domain("y", *DEFAULT_INT_RANGE)
        assert task.universe.domain("c") == Domain("c", 0, 1)

    def test_spec_listed_variable_keeps_its_range(self):
        task = build_task(
            parse_spec_text("[vars]\ny: int 0..3\n[program]\nint y = 2;\n")
        )
        assert task.universe.domain("y") == Domain("y", 0, 3)

    def test_missing_pre_is_true(self):
        task = build_task(parse_spec_text("[program]\n;\n"))
        assert task.pre == BoolConst(True)
        assert task.post is None

    def test_predicates_may_use_program_declared_vars(self):
        task = build_task(
            parse_spec_text("[program]\nint y = 1;\n[post]\ny == 1\n")
        )
        assert task.post == Cmp("==", Var("y"), Const(1))

    def test_bad_program_text_surfaces_parse_error(self):
        from scalc.errors import ScalcSyntaxError, UndeclaredVariableError

        with pytest.raises(ScalcSyntaxError):
            build_task(parse_spec_text("[vars]\nx: int\n[program]\nx = ;\n"))
        with pytest.raises(UndeclaredVariableError):
            build_task(parse_spec_text("[program]\nx = 1;\n"))


class TestLoadTask:
    def test_round_trip_through_file(self, tmp_path):
        p = tmp_path / "t.spec"
        p.write_text(FULL)
        task = load_task(str(p))
        assert task.spec.origin == str(p)
        assert task.spec.unroll == 3
