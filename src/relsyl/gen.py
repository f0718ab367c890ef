"""Random term, formula and axiom-instance generators.

Used by the fuzz command and the randomized test harnesses.  All
generators are deterministic functions of the supplied Random instance.
"""

from __future__ import annotations

import random
from typing import Sequence

from .proofs import AxiomName, _schemes
from .syntax import (
    And, Atom, Formula, Iff, Implies, Leq, Not, Or, QuantPair, RelCompl,
    RelConv, RelJoin, RelMeet, RelOne, RelTerm, RelVar, RelZero, SetCompl,
    SetJoin, SetMeet, SetOne, SetTerm, SetVar, SetZero, free_rel_vars,
    free_set_vars, transform,
)

DEFAULT_SET_VARS = ("a", "b", "c")
DEFAULT_REL_VARS = ("r", "s")


def random_set_term(rng: random.Random, variables: Sequence[str] = DEFAULT_SET_VARS,
                    depth: int = 2) -> SetTerm:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.8:
            return SetVar(rng.choice(list(variables)))
        return SetZero() if roll < 0.9 else SetOne()
    kind = rng.randrange(3)
    if kind == 0:
        return SetCompl(random_set_term(rng, variables, depth - 1))
    left = random_set_term(rng, variables, depth - 1)
    right = random_set_term(rng, variables, depth - 1)
    return SetMeet(left, right) if kind == 1 else SetJoin(left, right)


def random_rel_term(rng: random.Random, variables: Sequence[str] = DEFAULT_REL_VARS,
                    depth: int = 2) -> RelTerm:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.8:
            return RelVar(rng.choice(list(variables)))
        return RelZero() if roll < 0.9 else RelOne()
    kind = rng.randrange(4)
    if kind == 0:
        return RelCompl(random_rel_term(rng, variables, depth - 1))
    if kind == 1:
        return RelConv(random_rel_term(rng, variables, depth - 1))
    left = random_rel_term(rng, variables, depth - 1)
    right = random_rel_term(rng, variables, depth - 1)
    return RelMeet(left, right) if kind == 2 else RelJoin(left, right)


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
    smap = {v: random_set_term(rng, set_vars, term_depth)
            for v in sorted(free_set_vars(template))}
    rmap = {v: random_rel_term(rng, rel_vars, term_depth)
            for v in sorted(free_rel_vars(template))}

    def instantiate(n):
        if isinstance(n, SetVar):
            return smap[n.name]
        return rmap[n.name] if isinstance(n, RelVar) else n

    return transform(template, instantiate)
