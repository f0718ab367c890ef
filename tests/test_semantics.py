"""Finite models, the truth definition, and the empty model."""

import dataclasses
import itertools
import random

import pytest

from relsyl.semantics import (
    Model, ModelError, empty_model, eval_formula, eval_rel_term,
    eval_set_term, model_from_json, model_to_json, random_model,
)
from relsyl.syntax import (
    Atom, Leq, Not, QuantPair, RelCompl, RelConv, RelJoin, RelMeet, RelOne,
    RelVar, SetCompl, SetMeet, SetOne, SetVar, SetZero, parse_formula,
    parse_rel_term, parse_set_term,
)
from tests.test_syntax import _rand_formula, _rand_rel, _rand_set


def _m(domain, rel=None, sets=None):
    return Model(domain=tuple(domain), rel=rel or {}, sets=sets or {})


# ---------------------------------------------------------------------------
# independent oracle: per-point recursive truth definition
# ---------------------------------------------------------------------------

def _in_set(m, t, x):
    kind = type(t).__name__
    if kind == "SetVar":
        return x in m.sets.get(t.name, frozenset())
    if kind == "SetZero":
        return False
    if kind == "SetOne":
        return True
    if kind == "SetCompl":
        return not _in_set(m, t.arg, x)
    if kind == "SetMeet":
        return _in_set(m, t.left, x) and _in_set(m, t.right, x)
    if kind == "SetJoin":
        return _in_set(m, t.left, x) or _in_set(m, t.right, x)
    raise TypeError(kind)


def _in_rel(m, t, x, y):
    kind = type(t).__name__
    if kind == "RelVar":
        return (x, y) in m.rel.get(t.name, frozenset())
    if kind == "RelZero":
        return False
    if kind == "RelOne":
        return True
    if kind == "RelCompl":
        return not _in_rel(m, t.arg, x, y)
    if kind == "RelConv":
        return _in_rel(m, t.arg, y, x)
    if kind == "RelMeet":
        return _in_rel(m, t.left, x, y) and _in_rel(m, t.right, x, y)
    if kind == "RelJoin":
        return _in_rel(m, t.left, x, y) or _in_rel(m, t.right, x, y)
    raise TypeError(kind)


def _truth(m, f):
    kind = type(f).__name__
    if kind == "Leq":
        return all(_in_set(m, f.right, x)
                   for x in m.domain if _in_set(m, f.left, x))
    if kind == "Atom":
        a = [x for x in m.domain if _in_set(m, f.left, x)]
        b = [y for y in m.domain if _in_set(m, f.right, y)]
        q = f.quant.value
        if q == "EE":
            return any(_in_rel(m, f.rel, x, y) for x in a for y in b)
        if q == "AE":
            return all(any(_in_rel(m, f.rel, x, y) for y in b) for x in a)
        if q == "AA":
            return all(_in_rel(m, f.rel, x, y) for x in a for y in b)
        return any(all(_in_rel(m, f.rel, x, y) for y in b) for x in a)
    if kind == "Not":
        return not _truth(m, f.arg)
    if kind == "And":
        return _truth(m, f.left) and _truth(m, f.right)
    if kind == "Or":
        return _truth(m, f.left) or _truth(m, f.right)
    if kind == "Implies":
        return (not _truth(m, f.left)) or _truth(m, f.right)
    if kind == "Iff":
        return _truth(m, f.left) == _truth(m, f.right)
    if kind == "Top":
        return True
    if kind == "Bottom":
        return False
    raise TypeError(kind)


def _all_models(n, set_vars, rel_vars):
    """Every model over the given vocabulary with exactly n points."""
    domain = tuple(f"w{i}" for i in range(n))
    pairs = [(x, y) for x in domain for y in domain]
    for sets in itertools.product(
            *(itertools.product([False, True], repeat=n) for _ in set_vars)):
        for rels in itertools.product(
                *(itertools.product([False, True], repeat=len(pairs))
                  for _ in rel_vars)):
            yield Model(
                domain=domain,
                sets={v: frozenset(x for x, keep in zip(domain, bits) if keep)
                      for v, bits in zip(set_vars, sets)},
                rel={r: frozenset(p for p, keep in zip(pairs, bits) if keep)
                     for r, bits in zip(rel_vars, rels)},
            )


# ---------------------------------------------------------------------------
# term evaluation
# ---------------------------------------------------------------------------

def test_complement_of_zero_is_domain():
    m = _m(["x", "y"])
    assert eval_set_term(m, parse_set_term("-0")) == {"x", "y"}


def test_meet_with_complement_is_empty():
    m = _m(["x", "y"], sets={"a": {"x"}})
    assert eval_set_term(m, parse_set_term("a * -a")) == frozenset()


def test_set_terms_match_pointwise_oracle():
    rng = random.Random(31)
    for i in range(500):
        t = _rand_set(rng, 3)
        m = random_model(4, ["a", "b", "c"], [], seed=1000 + i)
        got = eval_set_term(m, t)
        want = frozenset(x for x in m.domain if _in_set(m, t, x))
        assert got == want


def test_converse_involution():
    m = random_model(4, [], ["r"], seed=3)
    assert eval_rel_term(m, parse_rel_term("r^^")) == m.rel["r"]


def test_rel_excluded_middle():
    m = random_model(3, [], ["r"], seed=4)
    full = {(x, y) for x in m.domain for y in m.domain}
    assert eval_rel_term(m, parse_rel_term("r + -r")) == full


def test_converse_distributes_over_meet():
    for i in range(500):
        m = random_model(3, [], ["r", "s"], seed=2000 + i)
        lhs = eval_rel_term(m, parse_rel_term("(r*s)^"))
        rhs = eval_rel_term(m, parse_rel_term("r^")) & \
            eval_rel_term(m, parse_rel_term("s^"))
        assert lhs == rhs


def test_rel_terms_match_pairwise_oracle():
    rng = random.Random(32)
    for i in range(500):
        t = _rand_rel(rng, 3)
        m = random_model(3, [], ["r", "s"], seed=3000 + i)
        got = eval_rel_term(m, t)
        want = frozenset((x, y) for x in m.domain for y in m.domain
                         if _in_rel(m, t, x, y))
        assert got == want


# ---------------------------------------------------------------------------
# formula truth
# ---------------------------------------------------------------------------

def test_empty_model_truth_pattern():
    m = empty_model()
    assert eval_formula(m, parse_formula("AE(a,b)[r]"))
    assert not eval_formula(m, parse_formula("EE(a,b)[r]"))
    assert eval_formula(m, parse_formula("a <= b"))
    assert not eval_formula(m, parse_formula("EA(a,b)[r]"))
    assert eval_formula(m, parse_formula("AA(a,b)[r]"))


def test_two_point_example():
    m = _m(["1", "2"], rel={"r": {("1", "2")}},
           sets={"a": {"1"}, "b": {"2"}})
    assert eval_formula(m, parse_formula("AA(a,b)[r]"))
    assert not eval_formula(m, parse_formula("EA(b,a)[r]"))


def test_aa_compl_iff_not_ee_exhaustively():
    pairs = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    instances = [parse_formula(f"AA({x},{y})[-r] <-> !EE({x},{y})[r]")
                 for x, y in pairs]
    for n in range(4):
        for m in _all_models(n, ["a", "b"], ["r"]):
            for inst in instances:
                assert eval_formula(m, inst)


def test_formulas_match_recursive_oracle():
    rng = random.Random(33)
    for i in range(500):
        f = _rand_formula(rng, 3)
        m = random_model(rng.randint(0, 4), ["a", "b", "c"], ["r", "s"],
                         seed=4000 + i)
        assert eval_formula(m, f) == _truth(m, f)


def test_semantic_dualities():
    rng = random.Random(34)
    for i in range(300):
        a = _rand_set(rng, 2)
        b = _rand_set(rng, 2)
        al = _rand_rel(rng, 2)
        m = random_model(rng.randint(0, 4), ["a", "b", "c"], ["r", "s"],
                         seed=5000 + i)
        assert eval_formula(m, Atom(QuantPair.AA, a, b, al)) == \
            (not eval_formula(m, Atom(QuantPair.EE, a, b, RelCompl(al))))
        assert eval_formula(m, Atom(QuantPair.EA, a, b, al)) == \
            (not eval_formula(m, Atom(QuantPair.AE, a, b, RelCompl(al))))
        assert eval_formula(m, Atom(QuantPair.EE, a, b, RelConv(al))) == \
            eval_formula(m, Atom(QuantPair.EE, b, a, al))


def test_universals_survive_restriction():
    rng = random.Random(35)
    for i in range(200):
        m = random_model(5, ["a", "b"], ["r"], seed=6000 + i)
        sub_points = frozenset(x for x in m.domain if rng.random() < 0.5)
        sub = Model(
            domain=tuple(x for x in m.domain if x in sub_points),
            sets={v: ms & sub_points for v, ms in m.sets.items()},
            rel={v: frozenset(p for p in ps
                              if p[0] in sub_points and p[1] in sub_points)
                 for v, ps in m.rel.items()},
        )
        for text in ("a <= b", "AA(a,b)[r]", "!EE(a,b)[r]"):
            f = parse_formula(text)
            if eval_formula(m, f):
                assert eval_formula(sub, f)


# ---------------------------------------------------------------------------
# widths past the exhaustive range; 65 points cross a 64-bit word
# ---------------------------------------------------------------------------

WIDTHS = (0, 1, 5, 9, 65)


def _wide_models(n, seed):
    """Models over one shared domain: sparse, half and dense, and one
    built by dataclasses.replace from another."""
    ms = [random_model(n, ["a", "b", "c", "e"], ["r", "s"], seed=seed + k, density=d)
          for k, d in enumerate((0.05, 0.5, 0.95))]
    ms.append(dataclasses.replace(ms[1], sets=ms[0].sets, rel=ms[2].rel))
    return ms


@pytest.mark.parametrize("n", WIDTHS)
def test_wide_terms_match_oracles(n):
    rng = random.Random(36 + n)
    models = _wide_models(n, 7100 + 10 * n)
    for _ in range(40):
        t, al = _rand_set(rng, 3), _rand_rel(rng, 3)
        for m in models:  # the same terms over each model in turn
            assert eval_set_term(m, t) == frozenset(x for x in m.domain if _in_set(m, t, x))
            assert eval_rel_term(m, al) == frozenset(
                (x, y) for x in m.domain for y in m.domain if _in_rel(m, al, x, y))


@pytest.mark.parametrize("n", WIDTHS)
def test_wide_formulas_match_oracle(n):
    rng = random.Random(37 + n)
    models = _wide_models(n, 7200 + 10 * n)
    for _ in range(60):
        f = _rand_formula(rng, 3)
        for m in models:
            assert eval_formula(m, f) == _truth(m, f)


@pytest.mark.parametrize("n", WIDTHS)
def test_quantified_atoms_over_empty_sets(n):
    m = random_model(n, ["a", "e"], ["r"], seed=7300 + n, density=0.5)
    m = dataclasses.replace(m, sets={**m.sets, "e": frozenset()})
    full, empties = SetOne(), (SetZero(), SetVar("e"), SetVar("zzz"))
    # the value with a empty, then with only b empty
    vacuous = {QuantPair.EE: (False, False), QuantPair.AE: (True, False),
               QuantPair.AA: (True, True), QuantPair.EA: (False, True)}
    for q, (a_empty, b_empty) in vacuous.items():
        for rel in (RelVar("r"), RelVar("zzz"), RelOne(), RelCompl(RelVar("r"))):
            for empty in empties:
                for f, want in ((Atom(q, empty, full, rel), a_empty),
                                (Atom(q, full, empty, rel), b_empty if n else a_empty)):
                    assert eval_formula(m, f) is want == _truth(m, f), (q, f)


def test_kernel_follows_the_model():
    d = tuple(f"w{i}" for i in range(9))
    f = parse_formula("EE(a,b)[r]")
    m1 = _m(d, rel={"r": {(d[0], d[1])}}, sets={"a": {d[0]}, "b": {d[1]}})
    m2 = _m(d, rel={"r": {(d[1], d[0])}}, sets={"a": {d[0]}, "b": {d[1]}})
    assert eval_formula(m1, f) and not eval_formula(m2, f) and eval_formula(m1, f)
    m3 = dataclasses.replace(m1, sets={"a": {d[2]}, "b": {d[1]}})
    assert not eval_formula(m3, f) and eval_formula(m1, f)
    assert eval_set_term(m3, SetVar("a")) == {d[2]}
    m4 = dataclasses.replace(m1, rel={"r": {(d[2], d[3])}})
    assert eval_rel_term(m4, parse_rel_term("r^")) == {(d[3], d[2])}
    assert eval_rel_term(m1, parse_rel_term("r^")) == {(d[1], d[0])}
    assert not eval_formula(m4, f)


# ---------------------------------------------------------------------------
# random models and files
# ---------------------------------------------------------------------------

def test_random_model_zero_points():
    assert random_model(0, ["a"], ["r"], seed=1).domain == ()


def test_random_model_deterministic():
    a = random_model(4, ["a", "b"], ["r"], seed=99)
    b = random_model(4, ["a", "b"], ["r"], seed=99)
    assert a == b


def test_random_model_density_one():
    m = random_model(3, ["a"], ["r"], seed=5, density=1.0)
    assert m.sets["a"] == frozenset(m.domain)
    assert m.rel["r"] == {(x, y) for x in m.domain for y in m.domain}


def test_model_validates_membership():
    with pytest.raises(ModelError):
        Model(domain=("x",), sets={"a": frozenset({"y"})})
    with pytest.raises(ModelError):
        Model(domain=("x",), rel={"r": frozenset({("x", "z")})})
    with pytest.raises(ModelError):
        Model(domain=("x", "x"))


def test_absent_variables_default_empty():
    m = _m(["x"])
    assert eval_set_term(m, SetVar("zzz")) == frozenset()
    assert eval_rel_term(m, RelVar("zzz")) == frozenset()


def test_model_json_round_trip():
    m = _m(["x", "y"], rel={"r": {("y", "x")}}, sets={"a": {"y"}})
    again = model_from_json(model_to_json(m))
    assert again == m
    # deterministic serialization
    assert model_to_json(again) == model_to_json(m)


def test_model_json_rejects_garbage():
    with pytest.raises(ModelError):
        model_from_json("not json")
    with pytest.raises(ModelError):
        model_from_json('{"rel": {}}')


@pytest.mark.parametrize("text", [
    '{"domain": "xy", "set": {"a": ["x"]}}',
    '{"domain": ["x", "y"], "set": {"a": "x"}}',
    '{"domain": ["x", "y"], "rel": {"r": ["xy"]}}',
    '{"domain": ["x", "y"], "rel": {"r": "xy"}}',
    '{"domain": {"x": 1, "y": 2}}',
], ids=["domain", "members", "pair", "pairs", "domain_object"])
def test_model_json_rejects_a_string_where_a_list_belongs(text):
    with pytest.raises(ModelError):
        model_from_json(text)
