"""Relational syllogistic logic over binary relations.

Subpackages:

- syntax: terms, formulas, parser, printer, controlled English
- semantics: finite models and the truth definition
- proofs: axiom matcher, tautology checker, Hilbert proof checker
- corpus: the built-in regression corpus of checked derivations
- bml: translation into basic modal logic (modal formulas are syntax formulas)
- solver: bounded satisfiability / validity / entailment, model minimizer
- copying: the relation-disjointification (copying) construction
- cli: the `relsyl` command-line tool
"""

from .syntax import (
    And, Atom, Bottom, Formula, Iff, Implies, Leq, Lexicon, Not, Or,
    ParseError, QuantPair, RelCompl, RelConv, RelJoin, RelMeet, RelOne,
    RelTerm, RelVar, RelZero, SetCompl, SetJoin, SetMeet, SetOne, SetTerm,
    SetVar, SetZero, Top, english_to_formula, equals, free_rel_vars,
    free_set_vars, parse_formula, parse_rel_term, parse_set_term,
    print_formula, print_rel_term, print_set_term, substitute_set_var,
)
from .semantics import (
    Model, ModelError, empty_model, eval_formula, eval_rel_term,
    eval_set_term, model_from_data, model_to_json, random_model,
)
from .proofs import (
    AxiomName, Mode, Proof, ProofLine, Verdict, check_proof, check_rule,
    check_tautology, match_axiom, proof_from_text, proof_to_text,
)
from .corpus import paper_corpus
from .bml import eval_bml, print_bml, translate
from .solver import (
    CountermodelFound, NoCountermodelUpTo, Sat, Unsat, UnsatUpTo, Valid,
    entails, is_sat, is_valid, minimize_model, small_model_bound,
)
from .copying import (
    Choices, ContractReport, CopiedFrame, CopyingError, IndexArithmetic,
    PreFrame, build_copies, choose, verify_contract,
)

__version__ = "0.1.0"
