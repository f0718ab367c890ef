"""Finite models and the truth definition.

A model is a triple (W, R, v): a finite ordered domain of opaque point
ids, a relational valuation mapping relational variables to sets of
ordered pairs, and a set valuation mapping set variables to subsets of W.
Variables absent from the maps denote the empty set / empty relation.
The empty domain is permitted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .syntax import (
    And, Atom, Bottom, Formula, Iff, Implies, Leq, Not, Or, QuantPair,
    RelCompl, RelConv, RelJoin, RelMeet, RelOne, RelTerm, RelVar, RelZero,
    SetCompl, SetJoin, SetMeet, SetOne, SetTerm, SetVar, SetZero, Top,
)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Model:
    domain: tuple[str, ...]
    rel: Mapping[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    sets: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        pts = set(self.domain)
        if len(self.domain) != len(pts):
            raise ModelError("duplicate points in domain")
        object.__setattr__(self, "rel",
                           {k: frozenset(v) for k, v in self.rel.items()})
        object.__setattr__(self, "sets",
                           {k: frozenset(v) for k, v in self.sets.items()})
        for name, pairs in self.rel.items():
            for x, y in pairs:
                if x not in pts or y not in pts:
                    raise ModelError(f"pair ({x!r},{y!r}) of relation {name!r} outside domain")
        for name, members in self.sets.items():
            for x in members:
                if x not in pts:
                    raise ModelError(f"member {x!r} of set {name!r} outside domain")

    def set_of(self, name: str) -> frozenset[str]:
        return self.sets.get(name, frozenset())

    def rel_of(self, name: str) -> frozenset[tuple[str, str]]:
        return self.rel.get(name, frozenset())


def empty_model() -> Model:
    return Model(domain=())


def eval_set_term(m: Model, t: SetTerm) -> frozenset[str]:
    if isinstance(t, SetVar):
        return m.set_of(t.name)
    if isinstance(t, SetZero):
        return frozenset()
    if isinstance(t, SetOne):
        return frozenset(m.domain)
    if isinstance(t, SetCompl):
        return frozenset(m.domain) - eval_set_term(m, t.arg)
    if isinstance(t, SetMeet):
        return eval_set_term(m, t.left) & eval_set_term(m, t.right)
    if isinstance(t, SetJoin):
        return eval_set_term(m, t.left) | eval_set_term(m, t.right)
    raise TypeError(f"not a set term: {t!r}")


def _all_pairs(m: Model) -> frozenset[tuple[str, str]]:
    return frozenset((x, y) for x in m.domain for y in m.domain)


def eval_rel_term(m: Model, t: RelTerm) -> frozenset[tuple[str, str]]:
    if isinstance(t, RelVar):
        return m.rel_of(t.name)
    if isinstance(t, RelZero):
        return frozenset()
    if isinstance(t, RelOne):
        return _all_pairs(m)
    if isinstance(t, RelCompl):
        return _all_pairs(m) - eval_rel_term(m, t.arg)
    if isinstance(t, RelMeet):
        return eval_rel_term(m, t.left) & eval_rel_term(m, t.right)
    if isinstance(t, RelJoin):
        return eval_rel_term(m, t.left) | eval_rel_term(m, t.right)
    if isinstance(t, RelConv):
        return frozenset((y, x) for (x, y) in eval_rel_term(m, t.arg))
    raise TypeError(f"not a relational term: {t!r}")


def eval_formula(m: Model, f: Formula) -> bool:
    if isinstance(f, Leq):
        return eval_set_term(m, f.left) <= eval_set_term(m, f.right)
    if isinstance(f, Atom):
        a = eval_set_term(m, f.left)
        b = eval_set_term(m, f.right)
        r = eval_rel_term(m, f.rel)
        if f.quant is QuantPair.EE:
            return any((x, y) in r for x in a for y in b)
        if f.quant is QuantPair.AE:
            return all(any((x, y) in r for y in b) for x in a)
        if f.quant is QuantPair.AA:
            return all((x, y) in r for x in a for y in b)
        # EA: some a-point related to every b-point
        return any(all((x, y) in r for y in b) for x in a)
    if isinstance(f, Not):
        return not eval_formula(m, f.arg)
    if isinstance(f, And):
        return eval_formula(m, f.left) and eval_formula(m, f.right)
    if isinstance(f, Or):
        return eval_formula(m, f.left) or eval_formula(m, f.right)
    if isinstance(f, Implies):
        return (not eval_formula(m, f.left)) or eval_formula(m, f.right)
    if isinstance(f, Iff):
        return eval_formula(m, f.left) == eval_formula(m, f.right)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    raise TypeError(f"not a formula: {f!r}")


def random_model(n: int, set_vars: Iterable[str], rel_vars: Iterable[str],
                 seed: int, density: float = 0.5) -> Model:
    """A random model with |W| = n; deterministic for a fixed seed."""
    if n < 0:
        raise ModelError("domain size must be non-negative")
    rng = random.Random(seed)
    domain = tuple(f"w{i}" for i in range(n))
    sets = {
        v: frozenset(x for x in domain if rng.random() < density)
        for v in set_vars
    }
    rel = {
        r: frozenset((x, y) for x in domain for y in domain if rng.random() < density)
        for r in rel_vars
    }
    return Model(domain=domain, rel=rel, sets=sets)


# ---------------------------------------------------------------------------
# Model files (JSON)
# ---------------------------------------------------------------------------

def model_from_json(text: str) -> Model:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"invalid model JSON: {e}") from e
    if not isinstance(data, dict) or "domain" not in data:
        raise ModelError("model JSON must be an object with a 'domain' field")
    try:
        domain = tuple(data["domain"])
        rel = {name: frozenset((x, y) for x, y in pairs)
               for name, pairs in data.get("rel", {}).items()}
        sets = {name: frozenset(members)
                for name, members in data.get("set", {}).items()}
        return Model(domain=domain, rel=rel, sets=sets)
    except ModelError:
        raise
    except (AttributeError, TypeError, ValueError) as e:
        raise ModelError(f"malformed model description: {e}") from e


def model_to_json(m: Model) -> str:
    """Serialize deterministically: members and pairs in domain order."""
    order = {x: i for i, x in enumerate(m.domain)}
    data = {
        "domain": list(m.domain),
        "rel": {
            name: sorted(([x, y] for x, y in pairs),
                         key=lambda p: (order[p[0]], order[p[1]]))
            for name, pairs in sorted(m.rel.items())
        },
        "set": {
            name: sorted(members, key=order.__getitem__)
            for name, members in sorted(m.sets.items())
        },
    }
    return json.dumps(data, indent=2)
