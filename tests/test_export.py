"""Exported SMT documents, checked with a small in-test evaluator.

The oracle parses the emitted text back into s-expressions and decides
satisfiability by brute force: symbols defined by single-assignment
equations are computed in document order, every remaining symbol is
enumerated over a test-chosen integer range.  For documents whose models
are forced into that range by the precondition this decides satisfiability
exactly, which lets the tests cross-check the export against the
finite-space verifier on the same programs.
"""

import hashlib
import itertools
import random

import pytest

from scalc.errors import UnsupportedForExportError
from scalc.export import export_vc, select_logic
from scalc.hoare import verify
from scalc.predicates import (
    Arith,
    BoolConst,
    Cmp,
    Conn,
    Const,
    Neg,
    Not,
    Var,
)
from scalc.semantics import denote
from scalc.state_space import (
    Domain,
    VarUniverse,
    build_space,
    index_to_state,
    state_to_index,
)
from scalc.syntax import (
    Assign,
    IfThenElse,
    Nop,
    Seq,
    declared_vars,
    parse_pred,
    parse_program,
    pretty_print,
)

from test_predicates import eval_pred

# ---------------------------------------------------------------------------
# s-expression oracle


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens, pos):
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        return items, pos + 1
    return tok, pos + 1


def parse_document(text):
    comments = []
    code_lines = []
    for line in text.splitlines():
        (comments if line.startswith(";") else code_lines).append(line)
    tokens = _tokenize("\n".join(code_lines))
    forms = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read(tokens, pos)
        forms.append(form)
    logic = None
    decls = []
    assertion = None
    assert forms[-1] == ["check-sat"]
    for form in forms[:-1]:
        if form[0] == "set-logic":
            logic = form[1]
        elif form[0] == "declare-const":
            assert form[2] == "Int"
            decls.append(form[1])
        elif form[0] == "assert":
            assert assertion is None, "expected a single assert"
            assertion = form[1]
    return comments, logic, decls, assertion


def _ev(x, env):
    if isinstance(x, str):
        if x == "true":
            return True
        if x == "false":
            return False
        if x.isdigit():
            return int(x)
        return env[x]
    op = x[0]
    if op == "-" and len(x) == 2:
        return -_ev(x[1], env)
    a = [_ev(arg, env) for arg in x[1:]] if op not in ("and", "or", "=>", "ite") else None
    if op == "+":
        return a[0] + a[1]
    if op == "-":
        return a[0] - a[1]
    if op == "*":
        return a[0] * a[1]
    if op == "=":
        return a[0] == a[1]
    if op == "<":
        return a[0] < a[1]
    if op == "<=":
        return a[0] <= a[1]
    if op == ">":
        return a[0] > a[1]
    if op == ">=":
        return a[0] >= a[1]
    if op == "not":
        return not a[0]
    if op == "and":
        return all(_ev(arg, env) for arg in x[1:])
    if op == "or":
        return any(_ev(arg, env) for arg in x[1:])
    if op == "=>":
        return (not _ev(x[1], env)) or _ev(x[2], env)
    if op == "ite":
        return _ev(x[2], env) if _ev(x[1], env) else _ev(x[3], env)
    raise AssertionError(f"oracle cannot evaluate {op}")


def _split_conjuncts(assertion):
    if isinstance(assertion, list) and assertion and assertion[0] == "and":
        return assertion[1:]
    return [assertion]


def _is_definition(conj, declared):
    return (
        isinstance(conj, list)
        and len(conj) == 3
        and conj[0] == "="
        and isinstance(conj[1], str)
        and conj[1] in declared
        and conj[1].rpartition("!")[2].isdigit()
        and int(conj[1].rpartition("!")[2]) >= 1
    )


def bounded_models(doc, ranges):
    """Models of the document's assertion with every non-defined symbol
    ranging over `ranges[variable]` (inclusive bounds)."""
    _, _, decls, assertion = parse_document(doc.text())
    conjuncts = _split_conjuncts(assertion)
    declared = set(decls)
    defined = set()
    for c in conjuncts:
        if _is_definition(c, declared) and c[1] not in defined:
            defined.add(c[1])
    free = [d for d in decls if d not in defined]
    axes = []
    for sym in free:
        lo, hi = ranges[sym.rpartition("!")[0]]
        axes.append(range(lo, hi + 1))
    for combo in itertools.product(*axes):
        env = dict(zip(free, combo))
        ok = True
        for c in conjuncts:
            if _is_definition(c, declared) and c[1] not in env:
                env[c[1]] = _ev(c[2], env)
            elif not _ev(c, env):
                ok = False
                break
        if ok:
            yield env


def bounded_sat(doc, ranges):
    return next(bounded_models(doc, ranges), None)


def make_doc(src, pre, post, variables, **kw):
    names = tuple(n for n, _ in variables)
    prog = parse_program(src, predeclared=names)
    inner = names + tuple(n for n, _ in declared_vars(prog) if n not in names)
    return export_vc(
        prog,
        parse_pred(pre, declared=inner),
        parse_pred(post, declared=inner),
        variables,
        **kw,
    )


BRANCH_SRC = "int a=5; if (a > 0) a=10; else a=100;"
LOOP_SRC = "while (i <= n) { f*=i; i++; }"
LOOP_VARS = [("i", "int"), ("n", "int"), ("f", "int")]
LOOP_RANGES = {"i": (0, 7), "n": (0, 7), "f": (0, 31)}


class TestDocumentShape:
    def test_branching_example_full_text(self):
        doc = make_doc(BRANCH_SRC, "true", "a == 10", [("a", "int")])
        digest = hashlib.sha256(
            pretty_print(parse_program(BRANCH_SRC)).encode()
        ).hexdigest()
        assert doc.program_sha256 == digest
        assert doc.logic == "QF_LIA"
        assert doc.metadata == (
            "; negated correctness condition: unsat means the condition holds",
            f"; program-sha256: {digest}",
            "; mode: total",
            "; unroll: 0",
            "; semantics: unbounded integers (finite-domain overflow not represented)",
            "; coverage: all executions (loop-free)",
        )
        assert doc.declarations == tuple(
            f"(declare-const a!{n} Int)" for n in range(6)
        )
        assert doc.assertion == (
            "(and true (= a!2 5) (= a!3 10) (= a!4 100) "
            "(= a!5 (ite (> a!2 0) a!3 a!4)) (not (= a!5 10)))"
        )
        assert doc.text().endswith("(check-sat)\n")

    def test_loop_doc_coverage_line(self):
        doc = make_doc(
            LOOP_SRC,
            "i == 2 && n == 4 && f == 1",
            "f == 24",
            LOOP_VARS,
            unroll=3,
            allow_partial_unroll=True,
        )
        assert doc.unroll == 3
        assert (
            "; coverage: executions with at most 3 iterations per loop; "
            "deeper executions are assumed away"
        ) in doc.metadata

    def test_mode_changes_metadata_only(self):
        total = make_doc(BRANCH_SRC, "true", "a == 10", [("a", "int")])
        partial = make_doc(BRANCH_SRC, "true", "a == 10", [("a", "int")], mode="partial")
        assert total.assertion == partial.assertion
        assert total.declarations == partial.declarations
        assert partial.mode == "partial"
        assert "; mode: partial" in partial.metadata

    def test_byte_determinism(self):
        a = make_doc(LOOP_SRC, "f == 1", "f == 24", LOOP_VARS, unroll=2,
                     allow_partial_unroll=True)
        b = make_doc(LOOP_SRC, "f == 1", "f == 24", LOOP_VARS, unroll=2,
                     allow_partial_unroll=True)
        assert a == b
        assert a.text() == b.text()

    def test_parse_back(self):
        doc = make_doc(BRANCH_SRC, "true", "a == 10", [("a", "int")])
        comments, logic, decls, assertion = parse_document(doc.text())
        assert logic == "QF_LIA"
        assert decls == [f"a!{n}" for n in range(6)]
        assert len(comments) == 6
        assert assertion[0] == "and"


class TestValidityByOracle:
    def test_branching_example_is_valid(self):
        doc = make_doc(BRANCH_SRC, "true", "a == 10", [("a", "int")])
        assert bounded_sat(doc, {"a": (-4, 4)}) is None

    def test_wrong_postcondition_is_refuted(self):
        doc = make_doc(BRANCH_SRC, "true", "a == 100", [("a", "int")])
        model = bounded_sat(doc, {"a": (-4, 4)})
        assert model is not None
        assert model["a!5"] == 10

    def test_factorial_loop_valid_at_sufficient_depth(self):
        doc = make_doc(
            LOOP_SRC,
            "i == 2 && n == 4 && f == 1",
            "f == 24",
            LOOP_VARS,
            unroll=3,
            allow_partial_unroll=True,
        )
        assert bounded_sat(doc, LOOP_RANGES) is None

    def test_real_execution_exists_at_depth_three(self):
        doc = make_doc(
            LOOP_SRC,
            "i == 2 && n == 4 && f == 1",
            "false",
            LOOP_VARS,
            unroll=3,
            allow_partial_unroll=True,
        )
        model = bounded_sat(doc, LOOP_RANGES)
        assert model is not None
        assert model["i!0"] == 2 and model["f!0"] == 1

    def test_insufficient_depth_assumes_everything_away(self):
        # two unrollings cannot finish the loop, so every execution is pruned
        # and even a false postcondition is vacuously "valid" within the bound
        doc = make_doc(
            LOOP_SRC,
            "i == 2 && n == 4 && f == 1",
            "false",
            LOOP_VARS,
            unroll=2,
            allow_partial_unroll=True,
        )
        assert bounded_sat(doc, LOOP_RANGES) is None

    def test_zero_unroll_keeps_only_non_entering_states(self):
        doc = make_doc(
            "while (i >= 0) i = i + 1;",
            "i < 0",
            "false",
            [("i", "int")],
            unroll=0,
            allow_partial_unroll=True,
        )
        model = bounded_sat(doc, {"i": (-3, 3)})
        assert model is not None and model["i!0"] < 0

    def test_trivially_false_condition(self):
        doc = make_doc(";", "true", "false", [("a", "int")])
        assert bounded_sat(doc, {"a": (0, 1)}) is not None

    def test_overflow_gap_documented(self):
        # finite domains kill the i=7 state (8 is out of range: total fails),
        # but over unbounded integers the increment succeeds and the document
        # is valid; the semantics metadata line records this divergence
        space = build_space(VarUniverse((("i", Domain("i", 0, 7)),)))
        prog = parse_program("i = i + 1;", predeclared=("i",))
        pre = parse_pred("i == 7", declared=("i",))
        post = parse_pred("i == 8", declared=("i",))
        assert not verify(prog, pre, post, "total", space).verdict.holds
        doc = export_vc(prog, pre, post, [("i", "int")])
        assert bounded_sat(doc, {"i": (0, 7)}) is None
        assert any("unbounded integers" in line for line in doc.metadata)


class TestBoolHandling:
    def test_initial_copies_are_range_constrained(self):
        doc = make_doc("b = 1;", "true", "b == 1", [("b", "bool")])
        conjuncts = _split_conjuncts(parse_document(doc.text())[3])
        assert conjuncts[0] == ["and", ["<=", "0", "b!0"], ["<=", "b!0", "1"]]

    def test_declared_bool_havoc_in_range(self):
        doc = make_doc("bool c;", "true", "c == 0 || c == 1", [("a", "int")])
        assert bounded_sat(doc, {"a": (0, 0), "c": (-2, 2)}) is None



class TestBranchMerging:
    def test_either_branch_outcome_satisfies_disjunction(self):
        doc = make_doc(
            "if (a > 0) a = 1; else a = 0;",
            "true",
            "a == 0 || a == 1",
            [("a", "int")],
        )
        assert bounded_sat(doc, {"a": (-3, 3)}) is None

    def test_branch_local_declaration_merges_with_initial(self):
        doc = make_doc(
            "if (x > 0) int y = 1;",
            "y == 0",
            "x > 0 -> y == 1",
            [("x", "int")],
        )
        assert bounded_sat(doc, {"x": (-2, 2), "y": (0, 0)}) is None
        flipped = make_doc(
            "if (x > 0) int y = 1;",
            "y == 0",
            "y == 0",
            [("x", "int")],
        )
        model = bounded_sat(flipped, {"x": (-2, 2), "y": (0, 0)})
        assert model is not None and model["x!0"] > 0


class TestLogicSelection:
    def test_linear_stays_lia(self):
        prog = parse_program("a = 2*a + 1;", predeclared=("a",))
        assert select_logic(prog, BoolConst(True), BoolConst(True)) == "QF_LIA"

    def test_variable_product_needs_nia(self):
        prog = parse_program("f = f*i;", predeclared=("f", "i"))
        assert select_logic(prog, BoolConst(True), BoolConst(True)) == "QF_NIA"

    def test_nonlinear_postcondition_counts(self):
        prog = parse_program(";")
        post = Cmp("==", Arith("*", Var("i"), Var("i")), Const(4))
        assert select_logic(prog, BoolConst(True), post) == "QF_NIA"

    def test_doc_logic_matches_header(self):
        doc = make_doc(LOOP_SRC, "true", "true", LOOP_VARS, unroll=1,
                       allow_partial_unroll=True)
        assert doc.logic == "QF_NIA"
        assert f"(set-logic {doc.logic})" in doc.text()


class TestErrors:
    def test_loop_requires_explicit_expansion(self):
        with pytest.raises(UnsupportedForExportError):
            make_doc(LOOP_SRC, "true", "true", LOOP_VARS, unroll=5)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            make_doc(";", "true", "true", [("a", "int")], mode="weird")

    def test_negative_unroll_rejected(self):
        with pytest.raises(ValueError):
            make_doc(";", "true", "true", [("a", "int")], unroll=-1)


class TestAgreementWithFiniteVerifier:
    """Random loop-free programs where the precondition pins every variable
    into the enumerated range, so the bounded oracle decides the document
    exactly and must agree with the finite-space verdict."""

    VARS = ("a", "b")

    def _arith(self, rng, for_assign, depth=2):
        # an assigned value stays inside the domain, where the unbounded
        # and the finite semantics agree; a compared one may leave it
        r = rng.random()
        if r < 0.35 or depth == 0:
            return Const(rng.randrange(4))
        if r < 0.7 or for_assign:
            return Var(rng.choice(self.VARS))
        if r < 0.78:
            return Neg(self._arith(rng, False, depth - 1))
        op = rng.choice(("+", "-", "*"))
        return Arith(op, self._arith(rng, False, depth - 1), self._arith(rng, False, depth - 1))

    def _cond(self, rng, depth=2):
        r = rng.random()
        if r < 0.5 or depth == 0:
            op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
            return Cmp(op, self._arith(rng, False), self._arith(rng, False))
        if r < 0.6:
            return Not(self._cond(rng, depth - 1))
        op = rng.choice(("&&", "||", "->", "<->"))
        return Conn(op, self._cond(rng, depth - 1), self._cond(rng, depth - 1))

    def _stmt(self, rng, depth):
        if depth == 0 or rng.random() < 0.3:
            return Assign(rng.choice(self.VARS), self._arith(rng, True))
        r = rng.random()
        if r < 0.35:
            return Seq((self._stmt(rng, depth - 1), self._stmt(rng, depth - 1)))
        if r < 0.6:
            return IfThenElse(self._cond(rng), self._stmt(rng, depth - 1), Nop())
        if r < 0.9:
            return IfThenElse(
                self._cond(rng), self._stmt(rng, depth - 1), self._stmt(rng, depth - 1)
            )
        return Nop()

    def test_verdicts_agree(self):
        rng = random.Random(0xD0C5)
        space = build_space(
            VarUniverse(
                tuple((v, Domain(v, 0, 15)) for v in self.VARS)
            )
        )
        pre = parse_pred(
            "0 <= a && a <= 3 && 0 <= b && b <= 3", declared=self.VARS
        )
        variables = [(v, "int") for v in self.VARS]
        ranges = {v: (0, 3) for v in self.VARS}
        disagreements = 0
        for _ in range(120):
            prog = self._stmt(rng, 3)
            post = self._cond(rng)
            report = verify(prog, pre, post, "total", space)
            doc = export_vc(prog, pre, post, variables)
            model = bounded_sat(doc, ranges)
            assert report.verdict.holds == (model is None)
            if model is None:
                continue
            disagreements += 1
            # replay the model through the finite semantics
            state = index_to_state(space, 0)
            for v in self.VARS:
                state = state.updated(v, model[f"{v}!0"])
            rel = denote(prog, space)
            mask = rel.succ[state_to_index(space, state)]
            final = index_to_state(space, mask.bit_length() - 1)
            assert mask.bit_count() == 1
            assert not eval_pred(post, final)
        # the sample should exercise both outcomes
        assert 10 < disagreements < 110
