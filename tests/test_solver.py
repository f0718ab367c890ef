"""Bounded solver: witness integrity, oracle agreement, fragments,
and the point-selection minimizer."""

import itertools
import random

import pytest

from relsyl.corpus import paper_corpus
from relsyl.gen import random_formula
from relsyl.proofs import _eval3
from relsyl.semantics import Model, eval_formula, random_model
from relsyl.solver import (
    BudgetExceeded, CountermodelFound, FragmentClass, NoCountermodelUpTo,
    Sat, SolverError, Unsat, UnsatUpTo, Valid, _Search, detect_fragment,
    entails, formula_size, is_sat, is_valid, minimize_model,
)
from relsyl.syntax import (
    And, Iff, Implies, Not, Or, RelJoin, RelMeet, RelVar, SetJoin, SetMeet,
    SetVar, free_rel_vars, free_set_vars, parse_formula,
)
from tests.test_semantics import _all_models
from tests.test_syntax import _rand_formula

P = parse_formula


# ---------------------------------------------------------------------------
# the shared strong-Kleene connective table
# ---------------------------------------------------------------------------

def _k_not(v):
    return None if v is None else not v


def _k_and(l, r):
    if l is False or r is False:
        return False
    return None if l is None or r is None else True


def _k_or(l, r):
    return _k_not(_k_and(_k_not(l), _k_not(r)))


KLEENE_TRUTH = {
    And: _k_and,
    Or: _k_or,
    Implies: lambda l, r: _k_or(_k_not(l), r),
    Iff: lambda l, r: None if l is None or r is None else l == r,
}
VALUES = (None, False, True)


def test_kleene_connectives_in_the_tautology_checker():
    p, q = P("a <= b"), P("c <= d")
    for l, r in itertools.product(VALUES, VALUES):
        env = {atom: v for atom, v in ((p, l), (q, r)) if v is not None}
        for op, truth in KLEENE_TRUTH.items():
            assert _eval3(op(p, q), env) is truth(l, r), (op.__name__, l, r)
        assert _eval3(Not(p), env) is _k_not(l)


def test_kleene_connectives_in_the_search():
    # at one point, EE(a,1)[1] is the membership bit of a at that point
    p, q = P("EE(a,1)[1]"), P("EE(b,1)[1]")
    search = _Search(p, 1, ["a", "b"], ["r", "s"], None)
    bits = {"a": ("s", "a", 0), "b": ("s", "b", 0)}
    cases = [(op, truth, search.ev, p, q) for op, truth in KLEENE_TRUTH.items()]
    cases += [(SetMeet, _k_and, lambda t: search.ev_set(t, 0), SetVar("a"), SetVar("b")),
              (SetJoin, _k_or, lambda t: search.ev_set(t, 0), SetVar("a"), SetVar("b")),
              (RelMeet, _k_and, lambda t: search.ev_rel(t, 0, 0), RelVar("r"), RelVar("s")),
              (RelJoin, _k_or, lambda t: search.ev_rel(t, 0, 0), RelVar("r"), RelVar("s"))]
    for l, r in itertools.product(VALUES, VALUES):
        search.sets["a"][0], search.sets["b"][0] = l, r
        search.rels["r"][0][0], search.rels["s"][0][0] = l, r
        left_bit = bits["a"] if l is None else None
        for op, truth, ev, x, y in cases:
            value, bit = ev(op(x, y))
            assert value is truth(l, r), (op.__name__, l, r)
            if value is not None:
                assert bit is None
            elif op in (RelMeet, RelJoin):
                assert bit == ("r", "r" if l is None else "s", 0, 0)
            else:
                assert bit == (left_bit or bits["b"])
        value, bit = search.ev(Not(p))
        assert value is _k_not(l) and bit == left_bit


# ---------------------------------------------------------------------------
# the search: trail, justifications, backjumping, symmetry breaking
# ---------------------------------------------------------------------------

def _search(f, n):
    return _Search(f, n, sorted(free_set_vars(f)), sorted(free_rel_vars(f)), None)


def test_search_depth_is_not_bounded_by_the_stack():
    # every one of the 32 * 32 edge bits is assigned before the formula holds
    found = _Search(P("AA(1,1)[r]"), 32, [], ["r"], None).run()
    assert found is not None and len(found.rel["r"]) == 32 * 32


def _random_partial_assignment(rng, search):
    for vals in search.sets.values():
        for i in range(search.n):
            vals[i] = rng.choice(VALUES)
    for rows in search.rels.values():
        for row in rows:
            for j in range(search.n):
                row[j] = rng.choice(VALUES)


def _keep_only(search, mask):
    for v, vals in search.sets.items():
        for i, m in enumerate(search.set_masks[v]):
            if not mask & m:
                vals[i] = None
    for v, rows in search.rels.items():
        for i, ms in enumerate(search.rel_masks[v]):
            for j, m in enumerate(ms):
                if not mask & m:
                    rows[i][j] = None


def test_justification_alone_decides_the_value():
    # strong-Kleene evaluation is monotone, so the bits of a justification
    # must decide the value with every other bit unassigned
    rng = random.Random(75)
    decided = {False: 0, True: 0}
    for _ in range(400):
        f = random_formula(rng, ("a", "b", "c"), ("r", "s"), depth=3, term_depth=2)
        for n in (1, 2):
            search = _search(f, n)
            _random_partial_assignment(rng, search)
            value, why = search.justify(f)
            if value is None:
                # the branch bit is one unassigned bit
                bit = search.bit(why)
                if bit[0] == "s":
                    assert search.sets[bit[1]][bit[2]] is None
                else:
                    assert search.rels[bit[1]][bit[2]][bit[3]] is None
                continue
            decided[value] += 1
            _keep_only(search, why)
            assert search.justify(f)[0] is value, (f, n)
    assert min(decided.values()) > 100  # the sample is not degenerate


def test_symmetry_conflict_is_the_compared_bits():
    search = _Search(P("a <= b"), 3, ["a", "b"], [], None)
    a, b = search.sets["a"], search.sets["b"]
    am, bm = search.set_masks["a"], search.set_masks["b"]
    a[0], a[1] = True, True
    assert search.unsorted(("s", "a", 1)) == 0  # b decides, and is unknown
    b[0], b[1] = True, False
    assert search.unsorted(("s", "b", 1)) == am[0] | am[1] | bm[0] | bm[1]
    b[1] = True
    a[2], b[2] = False, True
    # point 1 (1, 1) is lex-greater than point 2 (0, 1), found from either side
    assert search.unsorted(("s", "a", 2)) == am[1] | am[2]
    assert search.unsorted(("s", "a", 1)) == am[1] | am[2]
    assert search.unsorted(("r", "r", 0, 0)) == 0


def test_node_count_of_the_residuation_refutation():
    # node counts do not depend on the machine; chronological backtracking
    # visits 33,794 nodes here
    entry = next(e for e in paper_corpus() if e.name == "aa_residuation")
    f = Not(entry.conclusion)
    total = 0
    for n in range(4):
        search = _search(f, n)
        assert search.run() is None
        total += search.nodes
    assert total <= 5000


# ---------------------------------------------------------------------------
# is_sat basics
# ---------------------------------------------------------------------------

def test_zero_relation_unsat_up_to():
    for k in (0, 1, 2, 3):
        v = is_sat(P("EE(a,b)[0]"), k)
        assert v == UnsatUpTo(k)


def test_zero_relation_unsat_at_threshold():
    f = P("EE(a,b)[0]")
    assert formula_size(f) == 4
    # threshold 2^4 = 16: reaching it upgrades the verdict to Unsat
    assert is_sat(f, 16) == Unsat()


def test_duality_conflict_unsat():
    assert is_sat(P("EE(a,b)[r] & AA(a,b)[-r]"), 3) == UnsatUpTo(3)


def test_sat_with_size_two_witness():
    v = is_sat(P("AE(a,b)[r] & !AA(a,b)[r]"), 4)
    assert isinstance(v, Sat)
    assert len(v.witness.domain) == 2


def test_size_zero_searched_first():
    v = is_sat(P("!EE(a,b)[r]"), 4)
    assert isinstance(v, Sat)
    assert v.witness.domain == ()


def test_witness_vocabulary_is_query_vocabulary():
    v = is_sat(P("EE(a,b)[r]"), 3)
    assert isinstance(v, Sat)
    assert set(v.witness.sets) == {"a", "b"}
    assert set(v.witness.rel) == {"r"}


def test_witness_integrity_on_random_formulas():
    rng = random.Random(71)
    sats = 0
    for _ in range(300):
        f = _rand_formula(rng, 3)
        v = is_sat(f, 3)
        if isinstance(v, Sat):
            sats += 1
            assert eval_formula(v.witness, f)
    assert sats > 50  # the sample is not degenerate


def test_determinism():
    f = P("EE(a,b)[r] & !AA(a,b)[r]")
    assert is_sat(f, 3) == is_sat(f, 3)


def test_budget_reported_distinctly():
    hard = P("AA(a,b)[r] & AA(b,c)[s] & EE(a,c)[r*s] & AE(c,a)[-r]")
    with pytest.raises(BudgetExceeded):
        is_sat(hard, 4, node_budget=10)


def test_negative_bound_rejected():
    with pytest.raises(SolverError):
        is_sat(P("true"), -1)


# ---------------------------------------------------------------------------
# exhaustive-oracle agreement
# ---------------------------------------------------------------------------

def _oracle_sat_up_to_3(f):
    for n in range(4):
        for m in _all_models(n, ["a", "b"], ["r"]):
            if eval_formula(m, f):
                return True
    return False


def test_oracle_agreement_sample():
    rng = random.Random(72)
    for _ in range(150):
        f = _rand_formula(rng, 3)
        # restrict to the oracle's vocabulary
        if not (frozenset(["a", "b"]) >= _setvars(f)
                and frozenset(["r"]) >= _relvars(f)):
            continue
        got = is_sat(f, 3)
        if _oracle_sat_up_to_3(f):
            assert isinstance(got, Sat)
        else:
            # tiny formulas may already reach the completeness threshold
            assert got in (UnsatUpTo(3), Unsat())


def test_exhaustive_agreement_three_set_variables():
    models = [m for n in range(3) for m in _all_models(n, ["a", "b", "c"], ["r"])]
    rng = random.Random(76)
    sats = 0
    for _ in range(150):
        f = random_formula(rng, ("a", "b", "c"), ("r",), depth=3, term_depth=2)
        got = is_sat(f, 2)
        if any(eval_formula(m, f) for m in models):
            sats += 1
            assert isinstance(got, Sat), f
            assert eval_formula(got.witness, f), f
        else:
            assert got in (UnsatUpTo(2), Unsat()), f
    assert 10 < sats < 140  # the sample is not degenerate


def _setvars(f):
    from relsyl.syntax import free_set_vars
    return free_set_vars(f)


def _relvars(f):
    from relsyl.syntax import free_rel_vars
    return free_rel_vars(f)


# ---------------------------------------------------------------------------
# validity and entailment
# ---------------------------------------------------------------------------

def test_worked_theorem_no_countermodel():
    assert is_valid(P("EA(a,b)[r] -> AE(b,a)[r^]"), 4) == NoCountermodelUpTo(4)


def test_vacuous_antecedent_countermodel():
    v = is_valid(P("AE(a,b)[r] -> EE(a,b)[r]"), 4)
    assert isinstance(v, CountermodelFound)
    assert not eval_formula(v.model, P("AE(a,b)[r] -> EE(a,b)[r]"))


def test_valid_at_threshold():
    f = P("a <= 1")
    v = is_valid(f, 2 ** formula_size(Not(f)))
    assert v == Valid()


def test_duality_of_verdicts():
    rng = random.Random(73)
    for _ in range(100):
        f = _rand_formula(rng, 2)
        sat = is_sat(Not(f), 2)
        val = is_valid(f, 2)
        if isinstance(sat, Sat):
            assert isinstance(val, CountermodelFound)
            assert val.model == sat.witness
        elif isinstance(sat, Unsat):
            assert val == Valid()
        else:
            assert val == NoCountermodelUpTo(2)


def test_aa_does_not_entail_ae():
    v = entails([P("AA(a,b)[r]")], P("AE(a,b)[r]"), 4)
    assert isinstance(v, CountermodelFound)
    m = v.model
    assert eval_formula(m, P("AA(a,b)[r]"))
    assert not eval_formula(m, P("AE(a,b)[r]"))


def test_linking_entailment_holds_up_to_bound():
    v = entails([P("AE(a,b)[r]"), P("c <= a")], P("AE(c,b)[r]"), 4)
    assert v == NoCountermodelUpTo(4)


def test_empty_premises_match_is_valid():
    for text in ("EA(a,b)[r] -> AE(b,a)[r^]", "AE(a,b)[r] -> EE(a,b)[r]"):
        f = P(text)
        assert type(entails([], f, 3)) == type(is_valid(f, 3))


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------

def test_fragment_detection():
    assert detect_fragment(P("EE(a,b)[r] & a <= b")) \
        is FragmentClass.NO_MIXED_QUANTIFIERS
    assert detect_fragment(P("!AA(a,b)[r]")) \
        is FragmentClass.NO_MIXED_QUANTIFIERS
    assert detect_fragment(P("AE(a,b)[r]")) is FragmentClass.FULL
    assert detect_fragment(P("true -> EA(a,b)[r]")) is FragmentClass.FULL


# ---------------------------------------------------------------------------
# minimizer
# ---------------------------------------------------------------------------

def test_minimize_single_ee():
    f = P("EE(a,b)[r]")
    m = random_model(10, ["a", "b"], ["r"], seed=123, density=0.7)
    assert eval_formula(m, f)
    small = minimize_model(m, f)
    assert len(small.domain) <= 2
    assert eval_formula(small, f)


def test_minimize_universal_to_empty():
    f = P("a <= b")
    m = Model(domain=("x", "y"), sets={"a": frozenset({"x"}),
                                       "b": frozenset({"x", "y"})})
    small = minimize_model(m, f)
    assert small.domain == ()
    assert eval_formula(small, f)


def test_minimize_rejects_mixed_fragment():
    m = random_model(3, ["a", "b"], ["r"], seed=1)
    with pytest.raises(SolverError):
        minimize_model(m, P("AE(a,b)[r]"))


def test_minimize_rejects_falsified_formula():
    m = Model(domain=("x",), sets={"a": frozenset({"x"})})
    with pytest.raises(SolverError):
        minimize_model(m, P("EE(a,a)[r]"))


def test_minimize_three_atom_bound_and_truth():
    rng = random.Random(74)
    f = P("EE(a,b)[r] & !(b <= a) & !AA(a,a)[r]")
    trials = 0
    while trials < 100:
        m = random_model(50, ["a", "b"], ["r"],
                         seed=rng.randrange(2 ** 30), density=0.3)
        if not eval_formula(m, f):
            continue
        trials += 1
        small = minimize_model(m, f)
        assert len(small.domain) <= 6
        assert eval_formula(small, f)
        assert set(small.domain) <= set(m.domain)
