"""Finite models and the truth definition.

A model is a triple (W, R, v): a finite ordered domain of opaque point
ids, which are strings, a relational valuation mapping relational
variables to sets of ordered pairs, and a set valuation mapping set
variables to subsets of W.  Variables absent from the maps denote the
empty set / empty relation.  The empty domain is permitted.
`model_from_data` and `model_to_data` read and write a model file as data.

`Model` is the input and output type.  Evaluation reads its `Kernel`,
built on the first evaluation and kept on the model: bit i of an int
stands for the i-th point, a set is one mask, a relation is one row mask
per point, and the rows of its converse are its column masks.  One truth
definition, `truth`, gives the mask of the points where a source or modal
formula or a set term holds: `eval_formula` asks whether it is non-zero,
`eval_set_term` lists its points, `bml.eval_bml` reads one point's bit.
Negation and complement are `~`, so a mask may have bits above the
domain's, which no point reads.  A model must not be mutated once
evaluated; `dataclasses.replace` makes a new one with its own kernel.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

from .syntax import (
    And, Atom, Bottom, Box, Diamond, Formula, Iff, Implies, Leq, Not, Or,
    PropVar, RelCompl, RelConv, RelJoin, RelMeet, RelOne, RelTerm, RelVar,
    RelZero, SetCompl, SetJoin, SetMeet, SetOne, SetTerm, SetVar, SetZero, Top,
)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Model:
    domain: tuple[str, ...]
    rel: Mapping[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    sets: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        # JSON true, 1 and 1.0 are one Python key; no string equals any of them
        if not all(isinstance(x, str) for x in self.domain):
            raise ModelError(f"points must be strings, not {list(self.domain)!r:.40}")
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

    @cached_property
    def kernel(self) -> Kernel:
        """The bitset form that every evaluator reads, built on first use."""
        return Kernel(self)


def empty_model() -> Model:
    return Model(domain=())


class Kernel:
    """A model as Python ints, bit i standing for the i-th point of W."""

    def __init__(self, m: Model):
        self.pairs = m.rel
        self.full = (1 << len(m.domain)) - 1
        self.bit = bit = {x: 1 << i for i, x in enumerate(m.domain)}
        self.sets = {v: sum(map(bit.__getitem__, xs)) for v, xs in m.sets.items()}
        self.rels: dict[tuple[str, bool], list[int]] = {}

    def rows(self, t: RelTerm, conv: bool = False) -> list[int]:
        """The row masks of t, or of its converse if conv is set."""
        if isinstance(t, RelVar):
            rows = self.rels.get((t.name, conv))
            if rows is None:  # first use: one pass over the pairs, for rows or columns
                succ, bit = dict.fromkeys(self.bit, 0), self.bit
                for x, y in self.pairs.get(t.name, ()):
                    succ[y if conv else x] |= bit[x if conv else y]
                rows = self.rels[t.name, conv] = list(succ.values())
            return rows
        if isinstance(t, RelConv):  # converse moves down to the variables
            return self.rows(t.arg, not conv)
        if isinstance(t, RelCompl):
            return [self.full ^ row for row in self.rows(t.arg, conv)]
        if isinstance(t, RelMeet):
            return [x & y for x, y in zip(self.rows(t.left, conv), self.rows(t.right, conv))]
        if isinstance(t, RelJoin):
            return [x | y for x, y in zip(self.rows(t.left, conv), self.rows(t.right, conv))]
        if isinstance(t, RelZero):
            return [0] * len(self.bit)
        if isinstance(t, RelOne):
            return [self.full] * len(self.bit)
        raise TypeError(f"not a relational term: {t!r}")

    def some(self, rows: list[int], x: int) -> int:
        """The mask of the points with a successor in x."""
        return sum(bit for bit, row in zip(self.bit.values(), rows) if row & x)


def eval_set_term(m: Model, t: SetTerm) -> frozenset[str]:
    mask = truth(m.kernel, t)
    return frozenset(x for x, bit in m.kernel.bit.items() if mask & bit)


def eval_rel_term(m: Model, t: RelTerm) -> frozenset[tuple[str, str]]:
    rows = m.kernel.rows(t)
    return frozenset((x, y) for x, row in zip(m.domain, rows) if row
                     for y, bit in m.kernel.bit.items() if row & bit)


def truth(k: Kernel, x: Formula | SetTerm) -> int:
    """The mask of the points where x, a source or modal formula or a set
    term, holds.

    A set term is read as a formula of letters: a set variable as a letter,
    its meet, join and complement as `&`, `|` and `!`, and 0 and 1 as false
    and true.  A source formula holds at every point or at none: its mask
    is -1 or 0, on the empty domain too.  Negation and complement are `~`,
    so a mask may have bits above the domain's; no point reads them, and
    a caller that compares or counts masks first masks them with `k.full`.
    """
    cls = type(x)  # the order of the cases is the one that timed fastest
    if cls is Atom:
        a, b = truth(k, x.left), truth(k, x.right) & k.full
        # the successors in b of each a-point: some of b for ?E, all of b for ?A
        hits = (row & b for bit, row in zip(k.bit.values(), k.rows(x.rel)) if a & bit)
        first, second = x.quant.value
        if second == "A":
            hits = (hit == b for hit in hits)
        return -1 if (all(hits) if first == "A" else any(hits)) else 0
    if cls is SetVar or cls is PropVar:
        return k.sets.get(x.name, 0)
    if cls is SetMeet or cls is And:
        y = truth(k, x.left)
        return y and y & truth(k, x.right)
    if cls is SetJoin or cls is Or:
        y = truth(k, x.left)
        return y if y == -1 else y | truth(k, x.right)
    if cls is SetCompl or cls is Not:
        return ~truth(k, x.arg)
    if cls is Leq:
        return 0 if truth(k, x.left) & ~truth(k, x.right) & k.full else -1
    if cls is Implies:
        y = truth(k, x.left)
        return ~y | truth(k, x.right) if y else -1
    if cls is Iff:
        return ~(truth(k, x.left) ^ truth(k, x.right))
    if cls is SetOne or cls is Top:
        return -1
    if cls is SetZero or cls is Bottom:
        return 0
    if cls is Diamond:
        return k.some(k.rows(x.param), truth(k, x.arg))
    if cls is Box:  # no successor outside the mask of x.arg
        return ~k.some(k.rows(x.param), ~truth(k, x.arg))
    raise TypeError(f"not a formula or set term: {x!r}")


def eval_formula(m: Model, f: Formula) -> bool:
    return truth(m.kernel, f) != 0


@lru_cache(maxsize=16)
def _grid(n: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    domain = tuple(f"w{i}" for i in range(n))
    return domain, tuple((x, y) for x in domain for y in domain)


def random_model(n: int, set_vars: Iterable[str], rel_vars: Iterable[str],
                 seed: int, density: float = 0.5) -> Model:
    """A random model with |W| = n; deterministic for a fixed seed."""
    if n < 0:
        raise ModelError("domain size must be non-negative")
    rng = random.Random(seed)
    domain, pairs = _grid(n)
    draw = rng.random
    sets = {v: frozenset([x for x in domain if draw() < density]) for v in set_vars}
    rel = {r: frozenset([p for p in pairs if draw() < density]) for r in rel_vars}
    return Model(domain=domain, rel=rel, sets=sets)


# ---------------------------------------------------------------------------
# Model files (JSON)
# ---------------------------------------------------------------------------

def model_from_data(data) -> Model:
    """The model described by a decoded model file (see `model_to_data`)."""
    if not isinstance(data, dict) or "domain" not in data:
        raise ModelError("model JSON must be an object with a 'domain' field")

    def listed(value, what: str) -> list:
        # a JSON string or object would otherwise be read as a sequence
        if not isinstance(value, list):
            raise ModelError(f"{what} must be a JSON list, not {value!r:.40}")
        return value

    try:
        domain = tuple(listed(data["domain"], "domain"))
        rel = {name: frozenset(tuple(listed(p, f"a pair of {name!r}"))
                               for p in listed(pairs, f"relation {name!r}"))
               for name, pairs in data.get("rel", {}).items()}
        sets = {name: frozenset(listed(members, f"set {name!r}"))
                for name, members in data.get("set", {}).items()}
        return Model(domain=domain, rel=rel, sets=sets)
    except ModelError:
        raise
    except (AttributeError, TypeError, ValueError) as e:
        raise ModelError(f"malformed model description: {e}") from e


def model_to_data(m: Model) -> dict:
    """The model file of m, as data: members and pairs in domain order."""
    order = {x: i for i, x in enumerate(m.domain)}
    return {
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


def model_to_json(m: Model) -> str:
    """The model file of m, as deterministic text."""
    return json.dumps(model_to_data(m), indent=2)
