"""Finite-state correctness checking for a small imperative language.

The package parses programs and pre/post predicates, denotes programs as
explicit successor relations over an enumerated state space, decides total
and partial correctness by direct evaluation of the defining formulas,
computes weakest preconditions extensionally, re-checks a catalog of
algebraic laws about triples and wp on small abstract spaces, and can
export the correctness condition of a loop-free (or boundedly expanded)
program as SMT-LIB 2 text over unbounded integers.
"""

__version__ = "0.1.0"

from .errors import ScalcError, ScalcSyntaxError, SpaceTooLargeError, SpecFileError
from .export import VCDocument, export_vc
from .formulas import eval_sformula
from .hoare import (
    Counterexample,
    Report,
    Verdict,
    check_partial,
    check_total,
    program_wp,
    verify,
    wp,
)
from .laws import (
    DEFAULT_SEED,
    LawInstance,
    LawResult,
    check_law,
    random_predset,
    random_relation,
    registered_laws,
    run_laws,
)
from .predicates import PredSet, compile_pred, pred_to_set
from .semantics import Relation, denote
from .specfile import SpecFile, SpecTask, build_task, load_spec, load_task
from .state_space import (
    DEFAULT_MAX_STATES,
    Domain,
    State,
    StateSpace,
    VarUniverse,
    build_space,
    index_to_state,
    int_range_domain,
    state_to_index,
)
from .syntax import parse_arith, parse_pred, parse_program, pretty_print

__all__ = [
    "__version__",
    "ScalcError",
    "ScalcSyntaxError",
    "SpaceTooLargeError",
    "SpecFileError",
    "VCDocument",
    "export_vc",
    "eval_sformula",
    "Counterexample",
    "Report",
    "Verdict",
    "check_partial",
    "check_total",
    "program_wp",
    "verify",
    "wp",
    "DEFAULT_SEED",
    "LawInstance",
    "LawResult",
    "check_law",
    "random_predset",
    "random_relation",
    "registered_laws",
    "run_laws",
    "PredSet",
    "compile_pred",
    "pred_to_set",
    "Relation",
    "denote",
    "SpecFile",
    "SpecTask",
    "build_task",
    "load_spec",
    "load_task",
    "DEFAULT_MAX_STATES",
    "Domain",
    "State",
    "StateSpace",
    "VarUniverse",
    "build_space",
    "index_to_state",
    "int_range_domain",
    "state_to_index",
    "parse_arith",
    "parse_pred",
    "parse_program",
    "pretty_print",
]
