import random
from pathlib import Path

import pytest

from scalc.errors import NestingTooDeepError, ScalcSyntaxError, UndeclaredVariableError
from scalc.predicates import (
    INT64_MAX,
    INT64_MIN,
    Arith,
    BoolConst,
    Cmp,
    Conn,
    Const,
    Neg,
    Not,
    Var,
    compile_arith,
)
from scalc.specfile import load_task
from scalc.state_space import Domain, VarUniverse, build_space
from scalc.syntax import (
    MAX_NESTING,
    Assign,
    Decl,
    IfThenElse,
    Nop,
    Seq,
    While,
    declared_vars,
    parse_arith,
    parse_pred,
    parse_program,
    expr_to_str,
    pretty_print,
    seq_of,
    statements,
    tokenize,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


class TestParsePrograms:
    def test_branching_example(self):
        ast = parse_program("int a=5; if (a > 0) a=10; else a=100;")
        assert ast == Seq(
            (
                Decl("a", "int"),
                Assign("a", Const(5)),
                IfThenElse(
                    Cmp(">", Var("a"), Const(0)),
                    Assign("a", Const(10)),
                    Assign("a", Const(100)),
                ),
            )
        )

    def test_loop_example(self):
        ast = parse_program(
            "while (i <= n) { f = f*i; i = i+1; }", predeclared=("i", "n", "f")
        )
        assert ast == While(
            Cmp("<=", Var("i"), Var("n")),
            Seq(
                (
                    Assign("f", Arith("*", Var("f"), Var("i"))),
                    Assign("i", Arith("+", Var("i"), Const(1))),
                )
            ),
        )

    def test_empty_statement(self):
        assert parse_program(";") == Nop()

    def test_empty_program(self):
        assert parse_program("") == Nop()

    def test_compound_assignment_sugar(self):
        assert parse_program("f *= i;", predeclared=("f", "i")) == Assign(
            "f", Arith("*", Var("f"), Var("i"))
        )
        assert parse_program("i += 2;", predeclared=("i",)) == Assign(
            "i", Arith("+", Var("i"), Const(2))
        )
        assert parse_program("i -= 2;", predeclared=("i",)) == Assign(
            "i", Arith("-", Var("i"), Const(2))
        )
        assert parse_program("i++;", predeclared=("i",)) == Assign(
            "i", Arith("+", Var("i"), Const(1))
        )
        assert parse_program("i--;", predeclared=("i",)) == Assign(
            "i", Arith("-", Var("i"), Const(1))
        )

    def test_sugared_loop_matches_expanded_form(self):
        text = """
        while (i <= n) {
            f*=i;
            i++;
        }
        """
        assert parse_program(text, predeclared=("i", "n", "f")) == parse_program(
            "while (i <= n) { f = f*i; i = i+1; }", predeclared=("i", "n", "f")
        )

    def test_sequences_are_flat(self):
        ast = parse_program("a = 1; a = 2; a = 3;", predeclared=("a",))
        assert ast == Seq((Assign("a", Const(1)), Assign("a", Const(2)), Assign("a", Const(3))))

    def test_blocks_fold_into_sequence(self):
        flat = parse_program("a = 1; a = 2;", predeclared=("a",))
        assert parse_program("{ a = 1; a = 2; }", predeclared=("a",)) == flat
        assert parse_program("{ { a = 1; } { a = 2; } }", predeclared=("a",)) == flat

    def test_else_binds_to_nearest_if(self):
        ast = parse_program(
            "if (a > 0) if (a > 1) a = 1; else a = 2;", predeclared=("a",)
        )
        assert ast == IfThenElse(
            Cmp(">", Var("a"), Const(0)),
            IfThenElse(
                Cmp(">", Var("a"), Const(1)), Assign("a", Const(1)), Assign("a", Const(2))
            ),
            Nop(),
        )

    def test_declaration_with_initializer_splices_flat(self):
        ast = parse_program("int a = 5; a = 6;")
        assert ast == Seq((Decl("a", "int"), Assign("a", Const(5)), Assign("a", Const(6))))

    def test_initialized_declaration_as_branch_body(self):
        ast = parse_program("if (x > 0) int y = 1;", predeclared=("x",))
        assert ast == IfThenElse(
            Cmp(">", Var("x"), Const(0)), Seq((Decl("y", "int"), Assign("y", Const(1)))), Nop()
        )

    def test_comments_ignored(self):
        ast = parse_program("a = 1; // set a\n// whole line\na = 2;", predeclared=("a",))
        assert ast == parse_program("a = 1; a = 2;", predeclared=("a",))

    def test_bool_declaration(self):
        assert parse_program("bool b;") == Decl("b", "bool")

    def test_declared_vars_order_and_types(self):
        ast = parse_program("int a; bool b; a = 1; int c;")
        assert declared_vars(ast) == [("a", "int"), ("b", "bool"), ("c", "int")]

    def test_use_before_declaration_rejected(self):
        with pytest.raises(UndeclaredVariableError):
            parse_program("a = 1;")
        with pytest.raises(UndeclaredVariableError):
            parse_program("int a = b;")

    def test_prelude_counts_as_declared(self):
        parse_program("a = b;", predeclared=("a", "b"))

    def test_syntax_error_has_location(self):
        with pytest.raises(ScalcSyntaxError) as exc:
            parse_program("a = ;", predeclared=("a",))
        assert exc.value.span is not None

    def test_missing_semicolon(self):
        with pytest.raises(ScalcSyntaxError):
            parse_program("a = 1", predeclared=("a",))

    def test_stray_token(self):
        with pytest.raises(ScalcSyntaxError):
            parse_program("a = 1; %", predeclared=("a",))


class TestParsePredicates:
    def test_precedence_chain(self):
        got = parse_pred("a == 1 && a < 2 || !(a > 3)", declared=("a",))
        want = Conn(
            "||",
            Conn("&&", Cmp("==", Var("a"), Const(1)), Cmp("<", Var("a"), Const(2))),
            Not(Cmp(">", Var("a"), Const(3))),
        )
        assert got == want

    def test_implication_right_associative(self):
        got = parse_pred("true -> false -> true")
        assert got == Conn(
            "->", BoolConst(True), Conn("->", BoolConst(False), BoolConst(True))
        )

    def test_iff_left_associative_and_loosest(self):
        got = parse_pred("true <-> false -> false <-> true")
        assert got == Conn(
            "<->",
            Conn("<->", BoolConst(True), Conn("->", BoolConst(False), BoolConst(False))),
            BoolConst(True),
        )

    def test_parenthesized_predicate_vs_arith(self):
        got = parse_pred("(a + 1) > 2", declared=("a",))
        assert got == Cmp(">", Arith("+", Var("a"), Const(1)), Const(2))
        got = parse_pred("(a > 2)", declared=("a",))
        assert got == Cmp(">", Var("a"), Const(2))

    def test_arith_precedence(self):
        assert parse_arith("1 + 2 * 3") == Arith("+", Const(1), Arith("*", Const(2), Const(3)))
        assert parse_arith("(1 + 2) * 3") == Arith("*", Arith("+", Const(1), Const(2)), Const(3))
        assert parse_arith("1 - 2 - 3") == Arith("-", Arith("-", Const(1), Const(2)), Const(3))

    def test_unary_minus(self):
        assert parse_arith("-5") == Const(-5)
        assert parse_arith("-x", declared=("x",)) == Neg(Var("x"))
        assert parse_arith("3 - -2") == Arith("-", Const(3), Const(-2))

    def test_undeclared_in_predicate(self):
        with pytest.raises(UndeclaredVariableError):
            parse_pred("q == 1", declared=("a",))

    def test_keywords_not_identifiers(self):
        with pytest.raises(ScalcSyntaxError):
            parse_program("int if;")


class TestPrettyPrint:
    def test_nop(self):
        assert pretty_print(Nop()).strip() == ";"

    def test_assign(self):
        assert pretty_print(Assign("a", Const(5))).strip() == "a = 5;"

    def test_if_else_layout_reparses(self):
        src = "int a=5; if (a > 0) a=10; else a=100;"
        ast = parse_program(src)
        assert parse_program(pretty_print(ast)) == ast

    @pytest.mark.parametrize(
        "src",
        [
            "if (a > 0) a = 1;\n",
            "if (a > 0) a = 1;\nelse ;\n",
            "if (a > 0) a = 1;\nelse if (a < 0) a = 2;\n",
            "if (a > 0) {\n    if (a > 1) a = 1;\n    else a = 2;\n}\n",
        ],
        ids=["one-armed", "else-empty", "else-if-one-armed", "dangling-else"],
    )
    def test_conditionals_print_as_written(self, src):
        assert pretty_print(parse_program(src, predeclared=("a",))) == src

    def test_dangling_else_prints_with_the_inner_if(self):
        ast = parse_program("if (a > 0) if (a > 1) a = 1; else a = 2;", predeclared=("a",))
        assert pretty_print(ast) == "if (a > 0) {\n    if (a > 1) a = 1;\n    else a = 2;\n}\n"

    def test_an_explicit_empty_else_arm_is_kept(self):
        ast = parse_program("if (a > 0) a = 1; else {}", predeclared=("a",))
        assert pretty_print(ast) == "if (a > 0) a = 1;\nelse ;\n"
        one_armed = IfThenElse(Cmp(">", Var("a"), Const(0)), Assign("a", Const(1)), Nop())
        assert ast == one_armed
        assert pretty_print(one_armed) == "if (a > 0) a = 1;\n"


def test_token_positions_match_a_brute_force_count():
    rng = random.Random(0x70C)
    words = ("a", "bb", "if", "(", ")", "==", "12", ";", "{", "}", "// note")
    gaps = (" ", "  ", "\t", "\n", "\n\n", "\n  ", " \n\n\t")
    for trial in range(300):
        parts = [rng.choice(("", "\n", "\n\n"))]
        for _ in range(rng.randrange(1, 30)):
            parts += [rng.choice(words), rng.choice(gaps)]
        if parts[-2] == "// note":
            parts[-1] = "\n"
        source = "".join(parts)
        for tok in tokenize(source):
            start = tok.span.start
            line = source.count("\n", 0, start) + 1
            col = start - (source.rfind("\n", 0, start) + 1) + 1
            assert (tok.span.line, tok.span.col) == (line, col), (trial, source, tok)



def random_arith(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.4:
        if vars_ and rng.random() < 0.5:
            return Var(rng.choice(vars_))
        return Const(rng.randrange(-20, 100))
    kind = rng.randrange(4)
    if kind == 3:
        return Neg(random_arith(rng, vars_, depth - 1))
    op = ("+", "-", "*")[kind]
    return Arith(op, random_arith(rng, vars_, depth - 1), random_arith(rng, vars_, depth - 1))


def random_cond(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return BoolConst(rng.random() < 0.5)
        op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
        return Cmp(op, random_arith(rng, vars_, 1), random_arith(rng, vars_, 1))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_cond(rng, vars_, depth - 1))
    op = ("&&", "||", "->", "<->")[kind - 1]
    return Conn(op, random_cond(rng, vars_, depth - 1), random_cond(rng, vars_, depth - 1))


def random_stmt(rng, vars_, depth):
    if depth == 0:
        choices = ("nop", "assign", "decl")
    else:
        choices = ("nop", "assign", "decl", "seq", "if", "ite", "while")
    kind = rng.choice(choices)
    if kind == "nop":
        return Nop()
    if kind == "assign":
        return Assign(rng.choice(vars_), random_arith(rng, vars_, 2))
    if kind == "decl":
        return Decl(rng.choice(vars_), rng.choice(("int", "bool")))
    if kind == "seq":
        return seq_of([random_stmt(rng, vars_, depth - 1) for _ in range(rng.randrange(2, 4))])
    if kind == "if":
        return IfThenElse(random_cond(rng, vars_, 2), random_stmt(rng, vars_, depth - 1), Nop())
    if kind == "ite":
        return IfThenElse(
            random_cond(rng, vars_, 2),
            random_stmt(rng, vars_, depth - 1),
            random_stmt(rng, vars_, depth - 1),
        )
    return While(random_cond(rng, vars_, 2), random_stmt(rng, vars_, depth - 1))


def test_round_trip_500_random_programs():
    rng = random.Random(0x5EED)
    vars_ = ("a", "b", "c")
    for trial in range(500):
        ast = random_stmt(rng, vars_, rng.randrange(1, 7))
        text = pretty_print(ast)
        again = parse_program(text, predeclared=vars_)
        assert again == ast, f"trial {trial}:\n{text}"


def test_every_sequence_is_flat():
    """Every `Seq` the parser or `seq_of` builds has two or more parts, and
    none of them is a `Seq`."""

    def assert_flat(ast, context):
        for s in statements(ast):
            if isinstance(s, Seq):
                assert len(s.parts) >= 2 and not any(isinstance(p, Seq) for p in s.parts), context

    programs = [(load_task(str(spec)).program, spec.name) for spec in sorted(SPECS.glob("*.spec"))]
    assert len(programs) >= 7
    rng = random.Random(0xF1A7)
    vars_ = ("a", "b", "c")
    for trial in range(500):
        text = pretty_print(random_stmt(rng, vars_, rng.randrange(1, 7)))
        programs.append((parse_program(text, predeclared=vars_), f"trial {trial}:\n{text}"))
    for ast, context in programs:
        assert_flat(ast, context)

    a1, a2, a3 = (Assign("a", Const(k)) for k in (1, 2, 3))
    flat = Seq((a1, a2, a3))
    for text in ("{ { a = 1; a = 2; } a = 3; }", "{ a = 1; { a = 2; a = 3; } }", "a = 1; a = 2; a = 3;"):
        assert parse_program(text, predeclared=("a",)) == flat, text

    assert seq_of([]) == Nop()
    assert seq_of([a1]) is a1
    assert seq_of([Nop()]) == Nop()
    assert seq_of([Seq((a1, a2)), a3, Seq((a2, a1))]) == Seq((a1, a2, a3, a2, a1))
    assert seq_of([a1, Nop(), Seq((Nop(), a2))]) == Seq((a1, Nop(), Nop(), a2))


def test_round_trip_random_predicates():
    rng = random.Random(777)
    for _ in range(300):
        p = random_cond(rng, ("a", "b"), 4)
        assert parse_pred(expr_to_str(p), declared=("a", "b")) == p


@pytest.mark.parametrize("k", [-5, 0, 5, INT64_MIN, INT64_MAX, 2**63])
def test_a_minus_over_a_literal_prints_as_text_that_parses(k):
    # up to three minus signs over a literal, alone and under `+`: the text
    # reads back as the same tree, whose value can be UNDEFINED at the literal
    # (2**63) or at an inner negation (INT64_MIN)
    space = build_space(VarUniverse((("x", Domain("x", -2, 2)),)))
    tower = [Const(k)]
    while len(tower) < 4:
        tower.append(Neg(tower[-1]))
    for e in (*tower, *(Arith("+", Var("x"), t) for t in tower)):
        text = expr_to_str(e)
        back = parse_arith(text, declared=("x",))
        assert back == e, text
        want, got = compile_arith(e, space), compile_arith(back, space)
        assert [got(i) for i in range(space.size)] == [want(i) for i in range(space.size)], text
    assert expr_to_str(Neg(Const(k))) == f"-({k})"


# Random source text with its nesting in levels, counted as the parser's
# bound counts them: one per statement, operator, constant, variable,
# parenthesized group and block, none for a sequence.  Each construct gets
# one operand `budget` deep and keeps its others shallow, so the text stays
# short.  Every operand is parenthesized, so precedence never decides the
# shape.


def nested_arith(rng, budget):
    r = rng.random()
    if budget <= 2 or r < 0.1:
        return rng.choice(("i", "3")), 1
    if r < 0.3:
        text, levels = nested_arith(rng, budget - 1)
        return f"({text})", levels + 1
    if r < 0.45:
        text, levels = nested_arith(rng, budget - 2)
        return f"-({text})", levels + 2
    # a left-grouped chain: operand j of k sits k - j levels below the top
    op, k = rng.choice("+-*"), rng.randrange(2, 12)
    deep = rng.randrange(k)
    parts, height = [], 0
    for j in range(k):
        text, levels = nested_arith(rng, budget - 2 if j == deep else min(budget - 2, 3))
        parts.append(f"({text})")
        height = levels + 1 if j == 0 else max(height, levels + 1) + 1
    return f" {op} ".join(parts), height


def nested_pred(rng, budget):
    r = rng.random()
    if budget <= 3 or r < 0.2:
        left, nl = nested_arith(rng, budget - 2)
        right, nr = nested_arith(rng, min(budget - 2, 3))
        return f"({left}) < ({right})", 2 + max(nl, nr)
    if r < 0.4:
        text, levels = nested_pred(rng, budget - 2)
        return f"!({text})", levels + 2
    op = rng.choice(("&&", "||", "->", "<->"))
    texts = [nested_pred(rng, budget - 2), nested_pred(rng, min(budget - 2, 4))]
    rng.shuffle(texts)
    (left, nl), (right, nr) = texts
    return f"({left}) {op} ({right})", 2 + max(nl, nr)


def nested_stmt(rng, budget):
    r = rng.random()
    if budget <= 3 or r < 0.25:
        text, levels = nested_arith(rng, budget - 1)
        return f"i = {text};", levels + 1
    shallow = min(budget - 1, 3)
    if r < 0.6:
        cond, body = nested_pred(rng, budget - 1), nested_stmt(rng, shallow)
        if rng.random() < 0.5:
            cond, body = nested_pred(rng, shallow), nested_stmt(rng, budget - 1)
        if r < 0.4:
            return f"while ({cond[0]}) {body[0]}", 1 + max(cond[1], body[1])
        # the then-branch in braces, so that `else` cannot change owners
        other = nested_stmt(rng, rng.choice((shallow, budget - 1)))
        return f"if ({cond[0]}) {{ {body[0]} }} else {other[0]}", 1 + max(cond[1], body[1] + 1, other[1])
    parts = [nested_stmt(rng, shallow) for _ in range(rng.randrange(3))]
    parts.insert(rng.randrange(len(parts) + 1), nested_stmt(rng, budget - 1))
    return "{ " + " ".join(t for t, _ in parts) + " }", 1 + max(n for _, n in parts)


def test_the_nesting_bound_refuses_exactly_the_inputs_nested_too_deep():
    rng = random.Random(0xDEE9)
    outcomes = set()
    for trial in range(300):
        text, levels = nested_stmt(rng, rng.randrange(80, 120))
        try:
            parse_program(text, predeclared=("i",))
            accepted = True
        except NestingTooDeepError:
            accepted = False
        assert accepted == (levels <= MAX_NESTING), (trial, levels, text)
        outcomes.add(accepted)
    assert outcomes == {True, False}
