"""Random term, formula and axiom-instance generators.

Used by the fuzz command and the randomized test harnesses.  All
generators are deterministic functions of the supplied Random instance.
"""

from __future__ import annotations

import random
from typing import Sequence

from .proofs import AxiomName, _schemes
from .syntax import (
    _REL, _SET, And, Atom, Formula, Iff, Implies, Leq, Not, Or, QuantPair,
    RelTerm, RelVar, SetTerm, SetVar, _Sort, free_rel_vars, free_set_vars,
    substitute,
)

DEFAULT_SET_VARS = ("a", "b", "c")
DEFAULT_REL_VARS = ("r", "s")


def _random_term(rng: random.Random, sort: _Sort, variables: Sequence[str],
                 depth: int) -> SetTerm | RelTerm:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.8:
            return sort.var(rng.choice(list(variables)))
        return sort.zero if roll < 0.9 else sort.one
    unary = (sort.compl,) if sort.conv is None else (sort.compl, sort.conv)
    kind = rng.randrange(len(unary) + 2)
    if kind < len(unary):
        return unary[kind](_random_term(rng, sort, variables, depth - 1))
    left = _random_term(rng, sort, variables, depth - 1)
    right = _random_term(rng, sort, variables, depth - 1)
    meet_or_join = sort.ops[("*", "+")[kind - len(unary)]][0]
    return meet_or_join(left, right)


def random_set_term(rng: random.Random, variables: Sequence[str] = DEFAULT_SET_VARS,
                    depth: int = 2) -> SetTerm:
    return _random_term(rng, _SET, variables, depth)


def random_rel_term(rng: random.Random, variables: Sequence[str] = DEFAULT_REL_VARS,
                    depth: int = 2) -> RelTerm:
    return _random_term(rng, _REL, variables, depth)


def random_formula(rng: random.Random, set_vars: Sequence[str] = DEFAULT_SET_VARS,
                   rel_vars: Sequence[str] = DEFAULT_REL_VARS,
                   depth: int = 3, term_depth: int = 2) -> Formula:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.3:
            return Leq(random_set_term(rng, set_vars, term_depth),
                       random_set_term(rng, set_vars, term_depth))
        return Atom(rng.choice(list(QuantPair)),
                    random_set_term(rng, set_vars, term_depth),
                    random_set_term(rng, set_vars, term_depth),
                    random_rel_term(rng, rel_vars, term_depth))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, set_vars, rel_vars, depth - 1, term_depth))
    left = random_formula(rng, set_vars, rel_vars, depth - 1, term_depth)
    right = random_formula(rng, set_vars, rel_vars, depth - 1, term_depth)
    return (And, Or, Implies, Iff)[kind - 1](left, right)


def random_axiom_instance(name: AxiomName, rng: random.Random,
                          set_vars: Sequence[str] = DEFAULT_SET_VARS,
                          rel_vars: Sequence[str] = DEFAULT_REL_VARS,
                          term_depth: int = 2) -> Formula:
    """A closed instance of the scheme with random terms for each metavariable."""
    templates = _schemes(name)
    template = rng.choice(templates) if len(templates) > 1 else templates[0]
    # sorted, so that the draws do not depend on the process's hash seed
    binds = ({SetVar(v): random_set_term(rng, set_vars, term_depth)
              for v in sorted(free_set_vars(template))}
             | {RelVar(v): random_rel_term(rng, rel_vars, term_depth)
                for v in sorted(free_rel_vars(template))})
    return substitute(template, binds)
