"""Modal translation and its semantic adequacy."""

import random

import pytest

from relsyl.bml import BmlError, eval_bml, print_bml, translate
from relsyl.semantics import Model, empty_model, eval_formula, random_model
from relsyl.solver import formula_size
from relsyl.syntax import (
    And, Bottom, Box, Diamond, Iff, Implies, Not, Or, PropVar, RelCompl,
    RelConv, RelMeet, RelOne, RelVar, RelZero, Top, parse_formula,
    print_formula, print_rel_term,
)
from tests.test_semantics import _all_models
from tests.test_syntax import _rand_formula, _rand_rel

P = parse_formula
A, B = PropVar("a"), PropVar("b")
R = RelVar("r")


# ---------------------------------------------------------------------------
# translation shapes
# ---------------------------------------------------------------------------

def test_leq_translation():
    assert translate(P("a <= b")) == Box(RelOne(), Implies(A, B))


def test_ee_translation():
    assert translate(P("EE(a,b)[r]")) == \
        Diamond(RelOne(), And(A, Diamond(R, B)))


def test_ae_translation():
    assert translate(P("AE(a,b)[r]")) == \
        Box(RelOne(), Implies(A, Diamond(R, B)))


def test_aa_translation_uses_negation_form():
    assert translate(P("AA(a,b)[r]")) == \
        Box(RelOne(), Implies(A, Box(RelCompl(R), Not(B))))


def test_ea_translation_uses_negation_form():
    assert translate(P("EA(a,b)[r]")) == \
        Diamond(RelOne(), And(A, Box(RelCompl(R), Not(B))))


def test_connectives_are_homomorphic():
    f = P("EE(a,b)[r]")
    assert translate(Not(f)) == Not(translate(f))
    g = P("EE(a,b)[r] & a <= b")
    assert g.left == f
    assert translate(g) == And(translate(f), translate(g.right))


def test_set_terms_become_boolean_combinations():
    got = translate(P("a * -b <= 0"))
    assert got == Box(RelOne(), Implies(And(A, Not(B)), Bottom()))


def _bml_size(f):
    n = 1
    for attr in ("arg", "left", "right"):
        child = getattr(f, attr, None)
        if child is not None:
            n += _bml_size(child)
    return n


def test_translation_size_linear():
    rng = random.Random(61)
    for _ in range(200):
        f = _rand_formula(rng, 3)
        assert _bml_size(translate(f)) <= 6 * formula_size(f)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_box_one_top_true_everywhere():
    m = random_model(3, [], [], seed=1)
    for x in m.domain:
        assert eval_bml(m, x, Box(RelOne(), Top()))


def test_diamond_zero_false_everywhere():
    m = random_model(3, [], [], seed=2)
    for x in m.domain:
        assert not eval_bml(m, x, Diamond(RelZero(), Top()))


def test_eval_rejects_empty_domain():
    with pytest.raises(BmlError):
        eval_bml(empty_model(), "x", Top())


def test_eval_rejects_foreign_point():
    m = random_model(2, [], [], seed=3)
    with pytest.raises(BmlError):
        eval_bml(m, "nope", Top())


def test_atomic_translations_point_independent():
    rng = random.Random(62)
    atoms = [P("a <= b"), P("EE(a,b)[r]"), P("AE(a,b)[r]"),
             P("AA(a,b)[r]"), P("EA(a,b)[r]")]
    for i in range(500):
        m = random_model(rng.randint(1, 4), ["a", "b"], ["r"], seed=7000 + i)
        for f in atoms:
            bf = translate(f)
            values = {eval_bml(m, x, bf) for x in m.domain}
            assert len(values) == 1
            assert values == {eval_formula(m, f)}


def test_aa_translation_exhaustively_adequate():
    f = P("AA(a,b)[r]")
    bf = translate(f)
    for n in (1, 2, 3):
        for m in _all_models(n, ["a", "b"], ["r"]):
            want = eval_formula(m, f)
            for x in m.domain:
                assert eval_bml(m, x, bf) == want


def test_random_formulas_adequate():
    rng = random.Random(63)
    for i in range(500):
        f = _rand_formula(rng, 3)
        m = random_model(rng.randint(1, 4), ["a", "b", "c"], ["r", "s"],
                         seed=8000 + i)
        bf = translate(f)
        want = eval_formula(m, f)
        for x in m.domain:
            assert eval_bml(m, x, bf) == want


# ---------------------------------------------------------------------------
# independent pointwise oracle over pair sets
# ---------------------------------------------------------------------------

def _pairs(m, t):
    """The pairs of a relational term, computed on sets of tuples."""
    kind = type(t).__name__
    every = {(x, y) for x in m.domain for y in m.domain}
    if kind == "RelVar":
        return set(m.rel.get(t.name, ()))
    if kind == "RelZero":
        return set()
    if kind == "RelOne":
        return every
    if kind == "RelCompl":
        return every - _pairs(m, t.arg)
    if kind == "RelConv":
        return {(y, x) for x, y in _pairs(m, t.arg)}
    if kind == "RelMeet":
        return _pairs(m, t.left) & _pairs(m, t.right)
    if kind == "RelJoin":
        return _pairs(m, t.left) | _pairs(m, t.right)
    raise TypeError(kind)


def _holds_at(m, x, f):
    """Truth of a modal formula at point x, by the recursive definition."""
    kind = type(f).__name__
    if kind == "PropVar":
        return x in m.sets.get(f.name, ())
    if kind in ("Top", "Bottom"):
        return kind == "Top"
    if kind == "Not":
        return not _holds_at(m, x, f.arg)
    if kind in ("Diamond", "Box"):
        edges = _pairs(m, f.param)
        succ = [_holds_at(m, y, f.arg) for y in m.domain if (x, y) in edges]
        return any(succ) if kind == "Diamond" else all(succ)
    left, right = _holds_at(m, x, f.left), _holds_at(m, x, f.right)
    return {"And": left and right, "Or": left or right,
            "Implies": not left or right, "Iff": left == right}[kind]


def _rand_modal(rng, depth):
    """A modal formula whose modalities nest exactly depth deep."""
    if depth == 0:
        return rng.choice([A, B, PropVar("c"), PropVar("zzz"), Top(), Bottom()])
    cls = rng.choice([Box, Diamond])
    inner = cls(_rand_rel(rng, 2), _rand_modal(rng, depth - 1))
    side = _rand_modal(rng, rng.randrange(depth))
    return rng.choice([inner, Not(inner), And(inner, side), Or(side, inner),
                       Implies(inner, side), Iff(side, inner)])


def _rand_model(rng, n):
    domain = tuple(f"p{i}" for i in range(n))
    density = rng.choice((0.2, 0.5, 0.8))
    return Model(
        domain=domain,
        sets={v: frozenset(x for x in domain if rng.random() < 0.5) for v in "abc"},
        rel={r: frozenset((x, y) for x in domain for y in domain
                          if rng.random() < density) for r in "rs"},
    )


def test_nested_modalities_match_pointwise_oracle():
    rng = random.Random(64)
    seen = set()
    for i in range(400):
        f = _rand_modal(rng, 3 + i % 2)
        m = _rand_model(rng, 1 + i % 6)
        for x in m.domain:
            want = _holds_at(m, x, f)
            assert eval_bml(m, x, f) == want, (print_bml(f), m, x)
            seen.add(want)
    assert seen == {False, True}


def test_parameters_match_pointwise_oracle():
    rng = random.Random(65)
    params = [RelConv(R), RelMeet(R, RelConv(RelVar("s"))), RelCompl(RelConv(R)),
              RelZero(), RelCompl(RelZero()), RelVar("zzz"), RelConv(RelVar("zzz"))]
    for n in range(1, 7):
        m = _rand_model(rng, n)
        for p in params:
            for f in (Diamond(p, A), Box(p, A), Box(p, Diamond(RelConv(p), Not(B)))):
                for x in m.domain:
                    assert eval_bml(m, x, f) == _holds_at(m, x, f), (print_bml(f), m, x)


def test_modalities_across_a_64_bit_word():
    # a 65-point chain whose last point is the only one in a
    domain = tuple(f"p{i}" for i in range(65))
    m = Model(domain=domain, rel={"r": frozenset(zip(domain, domain[1:]))},
              sets={"a": {domain[-1]}, "b": set(domain[:-1])})
    for f in (Diamond(R, A), Box(R, A), Diamond(RelConv(R), Not(B)),
              Box(RelCompl(R), B), Diamond(R, Diamond(R, A)), Box(RelOne(), B)):
        for x in domain:
            assert eval_bml(m, x, f) == _holds_at(m, x, f), (print_bml(f), x)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def test_print_bml_examples():
    assert print_bml(translate(P("AA(a,b)[r]"))) == "[1](a -> [-r]!b)"
    assert print_bml(translate(P("EE(a,b)[r]"))) == "<1>(a & <r>b)"
    assert print_bml(Diamond(RelConv(R), Top())) == "<r^>true"
    assert print_bml is print_formula


# A frozen copy of the printer as it was written before it read the formula
# printer's table of infix operators: the oracle for print_bml.
_ORACLE_PREC = {"iff": 1, "imp": 2, "or": 3, "and": 4, "unary": 5}


def _oracle_print(f, ctx=0):
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "!" + _oracle_print(f.arg, _ORACLE_PREC["unary"])
    if isinstance(f, Diamond):
        return f"<{print_rel_term(f.param)}>" + _oracle_print(f.arg, _ORACLE_PREC["unary"])
    if isinstance(f, Box):
        return f"[{print_rel_term(f.param)}]" + _oracle_print(f.arg, _ORACLE_PREC["unary"])
    if isinstance(f, And):
        me = _ORACLE_PREC["and"]
        s = f"{_oracle_print(f.left, me)} & {_oracle_print(f.right, me + 1)}"
    elif isinstance(f, Or):
        me = _ORACLE_PREC["or"]
        s = f"{_oracle_print(f.left, me)} | {_oracle_print(f.right, me + 1)}"
    elif isinstance(f, Implies):
        me = _ORACLE_PREC["imp"]
        s = f"{_oracle_print(f.left, me + 1)} -> {_oracle_print(f.right, me)}"
    elif isinstance(f, Iff):
        me = _ORACLE_PREC["iff"]
        s = f"{_oracle_print(f.left, me)} <-> {_oracle_print(f.right, me + 1)}"
    else:
        raise TypeError(f"not a modal formula: {f!r}")
    return f"({s})" if ctx > me else s


_BINARY = (And, Or, Implies, Iff)


def _rand_bml(rng, depth):
    """A modal formula of at most depth connectives over every connective."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([A, B, Top(), Bottom()])
    kind = rng.randrange(7)
    if kind < 4:
        return _BINARY[kind](_rand_bml(rng, depth - 1), _rand_bml(rng, depth - 1))
    arg = _rand_bml(rng, depth - 1)
    return Not(arg) if kind == 4 else (Box, Diamond)[kind - 5](_rand_rel(rng, 1), arg)


def test_print_bml_matches_its_frozen_oracle():
    rng = random.Random(1001)
    seen = set()
    for _ in range(20_000):
        f = _rand_bml(rng, 5)
        assert print_bml(f) == _oracle_print(f), repr(f)
        seen.add(type(f))
    assert seen == {PropVar, Top, Bottom, Not, Box, Diamond, *_BINARY}
    for f in (translate(_rand_formula(rng, 3)) for _ in range(2_000)):
        assert print_bml(f) == _oracle_print(f), repr(f)
