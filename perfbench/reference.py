"""Reference truth for the benchmark's correctness checks.

This evaluator shares no code with ``relsyl.semantics`` or ``relsyl.bml``.
It walks the formula classes of ``relsyl.syntax`` by class name and
represents a model of n points as bit masks: a set is an n-bit int and a
relation is a list of n row masks (bit j of row i set iff (i, j) is an
edge).  The quantified atoms are read straight from their definitions:

    EE(A,B)[R]  some i in A has some j in B with (i,j) in R
    AE(A,B)[R]  every i in A has some j in B with (i,j) in R
    AA(A,B)[R]  every i in A has every j in B with (i,j) in R
    EA(A,B)[R]  some i in A has every j in B with (i,j) in R

On the empty model the universal readings are true and the existential
ones false.  Run this file to execute its self-test.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RefModel:
    n: int
    sets: dict   # name -> n-bit mask
    rels: dict   # name -> tuple of n row masks

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def model_from_parts(domain, sets, rels) -> RefModel:
    """Build a RefModel from point ids, {name: members} and {name: pairs}."""
    pos = {x: i for i, x in enumerate(domain)}
    if len(pos) != len(domain):
        raise ValueError("duplicate points in domain")
    n = len(domain)
    set_masks = {}
    for name, members in sets.items():
        mask = 0
        for x in members:
            mask |= 1 << pos[x]
        set_masks[name] = mask
    rel_rows = {}
    for name, pairs in rels.items():
        rows = [0] * n
        for x, y in pairs:
            rows[pos[x]] |= 1 << pos[y]
        rel_rows[name] = tuple(rows)
    return RefModel(n, set_masks, rel_rows)


def model_from_json(data: dict) -> RefModel:
    """Read a model in the layout that ``relsyl --format json`` prints."""
    return model_from_parts(data["domain"], data.get("set", {}), data.get("rel", {}))


def _points(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def set_mask(m: RefModel, t) -> int:
    kind = type(t).__name__
    if kind == "SetVar":
        return m.sets.get(t.name, 0)
    if kind == "SetZero":
        return 0
    if kind == "SetOne":
        return m.full
    if kind == "SetCompl":
        return m.full ^ set_mask(m, t.arg)
    if kind == "SetMeet":
        return set_mask(m, t.left) & set_mask(m, t.right)
    if kind == "SetJoin":
        return set_mask(m, t.left) | set_mask(m, t.right)
    raise TypeError(f"not a set term: {t!r}")


def rel_rows(m: RefModel, t) -> tuple:
    kind = type(t).__name__
    if kind == "RelVar":
        return m.rels.get(t.name, (0,) * m.n)
    if kind == "RelZero":
        return (0,) * m.n
    if kind == "RelOne":
        return (m.full,) * m.n
    if kind == "RelCompl":
        return tuple(m.full ^ row for row in rel_rows(m, t.arg))
    if kind == "RelMeet":
        return tuple(a & b for a, b in zip(rel_rows(m, t.left), rel_rows(m, t.right)))
    if kind == "RelJoin":
        return tuple(a | b for a, b in zip(rel_rows(m, t.left), rel_rows(m, t.right)))
    if kind == "RelConv":
        rows = rel_rows(m, t.arg)
        return tuple(sum(1 << i for i in range(m.n) if rows[i] >> j & 1)
                     for j in range(m.n))
    raise TypeError(f"not a relational term: {t!r}")


def holds(m: RefModel, f) -> bool:
    kind = type(f).__name__
    if kind == "Leq":
        return set_mask(m, f.left) & ~set_mask(m, f.right) == 0
    if kind == "Atom":
        a = set_mask(m, f.left)
        b = set_mask(m, f.right)
        rows = rel_rows(m, f.rel)
        q = f.quant.name
        if q == "EE":
            return any(rows[i] & b for i in _points(a))
        if q == "AE":
            return all(rows[i] & b for i in _points(a))
        if q == "AA":
            return all(rows[i] & b == b for i in _points(a))
        if q == "EA":
            return any(rows[i] & b == b for i in _points(a))
        raise TypeError(f"unknown quantifier pair {f.quant!r}")
    if kind == "Not":
        return not holds(m, f.arg)
    if kind == "And":
        return holds(m, f.left) and holds(m, f.right)
    if kind == "Or":
        return holds(m, f.left) or holds(m, f.right)
    if kind == "Implies":
        return (not holds(m, f.left)) or holds(m, f.right)
    if kind == "Iff":
        return holds(m, f.left) == holds(m, f.right)
    if kind == "Top":
        return True
    if kind == "Bottom":
        return False
    raise TypeError(f"not a formula: {f!r}")


def self_test() -> None:
    """Check the evaluator against truth values worked out by hand."""
    from relsyl.syntax import parse_formula

    # points 0, 1, 2; a = {0, 1}; b = {1, 2}; r = {(0,1), (0,2), (1,2)}
    m = model_from_parts(("p0", "p1", "p2"),
                         {"a": ("p0", "p1"), "b": ("p1", "p2")},
                         {"r": (("p0", "p1"), ("p0", "p2"), ("p1", "p2"))})
    table = {
        "EE(a,b)[r]": True,    # 0 r 1
        "AE(a,b)[r]": True,    # 0 r 1, 1 r 2
        "AA(a,b)[r]": False,   # 1 does not bear r to 1
        "EA(a,b)[r]": True,    # 0 r 1 and 0 r 2
        "EE(b,a)[r]": False,   # 1 and 2 reach no point of a
        "AE(a,a)[r]": False,   # 1 reaches no point of a
        "EA(b,b)[r^]": False,  # r^ = {(1,0),(2,0),(2,1)}: neither 1 nor 2 reaches both
        "a*b <= b": True,
        "a <= b": False,       # 0 is in a only
        "AA(a*b,-a)[r]": True,  # a*b = {1}, -a = {2}, and 1 r 2
        "EE(1,1)[-r*-r^]": True,  # every diagonal pair
    }
    for text, want in table.items():
        got = holds(m, parse_formula(text))
        if got is not want:
            raise AssertionError(f"reference evaluator: {text} gave {got}, want {want}")
    # empty model: universal readings true, existential false, every Leq true
    e = model_from_parts((), {}, {})
    terms = ("a", "b", "0", "1")
    for x in terms:
        for y in terms:
            if not holds(e, parse_formula(f"{x} <= {y}")):
                raise AssertionError(f"empty model: {x} <= {y} should hold")
            for rel in ("r", "0", "1"):
                for q, want in (("AE", True), ("AA", True), ("EE", False), ("EA", False)):
                    got = holds(e, parse_formula(f"{q}({x},{y})[{rel}]"))
                    if got is not want:
                        raise AssertionError(
                            f"empty model: {q}({x},{y})[{rel}] gave {got}")


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    self_test()
    print("reference self-test ok")
