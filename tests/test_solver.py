"""Bounded solver: witness integrity, oracle agreement, fragments,
and the point-selection minimizer."""

import hashlib
import itertools
import random

import pytest

from relsyl import solver
from relsyl.corpus import paper_corpus
from relsyl.gen import (
    random_axiom_instance, random_formula, random_rel_term, random_set_term,
)
from relsyl.proofs import AxiomName, check_tautology
from relsyl.semantics import (
    Model, eval_formula, eval_rel_term, eval_set_term, model_to_json,
    random_model,
)
from relsyl.solver import (
    BudgetExceeded, CountermodelFound, NoCountermodelUpTo, Sat, SolverError,
    Unsat, UnsatUpTo, Valid, _Search, entails, formula_size, is_sat, is_valid,
    minimize_model, small_model_bound,
)
from relsyl.syntax import (
    And, Atom, Bottom, Diamond, Formula, Iff, Implies, Leq, Not, Or, PropVar,
    QuantPair, RelCompl, RelConv, RelJoin, RelMeet, RelOne, RelVar, RelZero,
    SetCompl, SetJoin, SetMeet, SetOne, SetTerm, SetVar, SetZero, Top,
    free_rel_vars, free_set_vars, nodes, parse_formula,
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


def _decided(f):
    """The value every assignment to f's atoms gives it, or None."""
    if check_tautology(f):
        return True
    return False if check_tautology(Not(f)) else None


def test_kleene_connectives_in_the_tautology_checker():
    # the strong-Kleene value of a formula in which each atom occurs once is
    # exact: `true` and `false` are known operands and a fresh atom is an
    # unknown one
    known = {True: P("true"), False: P("false")}
    unknown = (P("a <= b"), P("c <= d"))
    for l, r in itertools.product(VALUES, VALUES):
        p = unknown[0] if l is None else known[l]
        q = unknown[1] if r is None else known[r]
        for op, truth in KLEENE_TRUTH.items():
            assert _decided(op(p, q)) is truth(l, r), (op.__name__, l, r)
        assert _decided(Not(p)) is _k_not(l)


def _unassigned(search):
    return sum(1 << k for k, x in enumerate(search.value) if x is None)


def test_kleene_connectives_in_the_search():
    # at one point, EE(a,1)[1] is the membership bit of a at that point
    p, q = P("EE(a,1)[1]"), P("EE(b,1)[1]")
    search = _Search(p, 1, ["a", "b"], ["r", "s"], None)
    a, b = search.set_base["a"], search.set_base["b"]
    r, s = search.rel_base["r"], search.rel_base["s"]
    term = lambda t: search.justify(t, 0)
    cases = [(op, truth, search.justify, p, q) for op, truth in KLEENE_TRUTH.items()]
    cases += [(SetMeet, _k_and, term, SetVar("a"), SetVar("b")),
              (SetJoin, _k_or, term, SetVar("a"), SetVar("b")),
              (RelMeet, _k_and, term, RelVar("r"), RelVar("s")),
              (RelJoin, _k_or, term, RelVar("r"), RelVar("s"))]
    for l, rv in itertools.product(VALUES, VALUES):
        search.value[a], search.value[b] = l, rv
        search.value[r], search.value[s] = l, rv
        unassigned = _unassigned(search)
        branch = a if l is None else b
        for op, truth, walk, x, y in cases:
            value, mask = walk(op(x, y))
            assert value is truth(l, rv), (op.__name__, l, rv)
            if value is not None:
                assert not mask & unassigned  # justified by assigned bits
            elif op in (RelMeet, RelJoin):
                assert mask == 1 << (r if l is None else s)
            else:
                assert mask == 1 << branch
        value, mask = search.justify(Not(p))
        assert value is _k_not(l)
        if value is None:
            assert mask == 1 << a
        else:
            assert not mask & unassigned


def test_term_constants_complements_and_converse():
    search = _Search(P("true"), 2, ["a"], ["r"], None)
    # a relation term is walked at a pair's row-major index and its
    # converse's: (0, 1) is (1, 2) and (1, 0) is (2, 1)
    a1 = search.set_base["a"] + 1
    r01, r10 = search.rel_base["r"] + 1, search.rel_base["r"] + 2
    search.value[a1] = True
    search.value[r01], search.value[r10] = True, False
    for t, i, j, want in ((P("0 <= a").left, 0, 0, (False, 0)),
                          (P("1 <= a").left, 0, 0, (True, 0)),
                          (P("-a <= a").left, 1, 0, (False, 1 << a1)),
                          (P("EE(a,a)[0]").rel, 1, 2, (False, 0)),
                          (P("EE(a,a)[1]").rel, 1, 2, (True, 0)),
                          (P("EE(a,a)[-r]").rel, 1, 2, (False, 1 << r01)),
                          (P("EE(a,a)[r^]").rel, 1, 2, (False, 1 << r10)),
                          (P("EE(a,a)[-r^]").rel, 2, 1, (False, 1 << r01))):
        assert search.justify(t, i, j) == want, (t, i, j)


# The search's three-valued walkers as they were when formulas, terms and
# atoms each had their own, frozen as a reference: one walker for formulas
# and terms, and one loop for `Leq` and the four quantifier pairs, must
# give the same (value, mask) on every state, not only on the states a
# search reaches.
_FROZEN_KLEENE = {
    And: (False, False), Or: (False, True), Implies: (True, True),
    SetMeet: (False, False), SetJoin: (False, True),
    RelMeet: (False, False), RelJoin: (False, True),
}


class _FrozenWalkers:
    def __init__(self, search):
        self.n, self.value = search.n, search.value
        self.set_base, self.rel_base = search.set_base, search.rel_base

    def justify_term(self, t, i, j=0):
        cls = type(t)
        if cls is SetVar:
            k = self.set_base[t.name] + i
            return self.value[k], 1 << k
        if cls is RelVar:
            k = self.rel_base[t.name] + i
            return self.value[k], 1 << k
        op = _FROZEN_KLEENE.get(cls)
        if op is not None:
            _, dom = op
            l, lm = self.justify_term(t.left, i, j)
            if l is dom:
                return dom, lm
            r, rm = self.justify_term(t.right, i, j)
            if r is dom:
                return dom, rm
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return not dom, lm | rm
        if cls is SetZero or cls is RelZero:
            return False, 0
        if cls is SetOne or cls is RelOne:
            return True, 0
        if cls is SetCompl or cls is RelCompl:
            v, m = self.justify_term(t.arg, i, j)
            return (None if v is None else not v), m
        if cls is RelConv:
            return self.justify_term(t.arg, j, i)
        raise TypeError(f"not a term: {t!r}")

    def justify_atom(self, f):
        n = self.n
        q = f.quant
        dual = q is QuantPair.AA or q is QuantPair.EA
        rights = [self.justify_term(f.right, j) for j in range(n)]
        reason = unknown = 0
        if q is QuantPair.EE or q is QuantPair.AA:
            for i in range(n):
                a, am = self.justify_term(f.left, i)
                if a is False:
                    reason |= am
                    continue
                for j, (bv, bm) in enumerate(rights):
                    if bv is False:
                        reason |= bm
                        continue
                    r, rm = self.justify_term(f.rel, i * n + j, j * n + i)
                    if r is dual:
                        reason |= rm
                        continue
                    if a is True and bv is True and r is not None:
                        return not dual, am | bm | rm
                    if not unknown:
                        unknown = am if a is None else bm if bv is None else rm
            return (None, unknown) if unknown else (dual, reason)
        for i in range(n):
            a, am = self.justify_term(f.left, i)
            if a is False:
                reason |= am
                continue
            row, row_unknown = am, 0
            for j, (bv, bm) in enumerate(rights):
                if bv is False:
                    row |= bm
                    continue
                r, rm = self.justify_term(f.rel, i * n + j, j * n + i)
                if r is dual:
                    row |= rm
                    continue
                if bv is True and r is not None:
                    reason |= bm | rm
                    break
                if not row_unknown:
                    row_unknown = bm if bv is None else rm
            else:
                if a is True and not row_unknown:
                    return dual, row
                if not unknown:
                    unknown = am if a is None else row_unknown
        return (None, unknown) if unknown else (not dual, reason)

    def justify(self, f):
        op = _FROZEN_KLEENE.get(type(f))
        if op is not None:
            neg, dom = op
            l, lm = self.justify(f.left)
            if l is not None and (l is not neg) is dom:
                return dom, lm
            r, rm = self.justify(f.right)
            if r is dom:
                return dom, rm
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return not dom, lm | rm
        if isinstance(f, Atom):
            return self.justify_atom(f)
        if isinstance(f, Leq):
            reason = unknown = 0
            for i in range(self.n):
                a, am = self.justify_term(f.left, i)
                if a is False:
                    reason |= am
                    continue
                bv, bm = self.justify_term(f.right, i)
                if bv is True:
                    reason |= bm
                    continue
                if a is True and bv is False:
                    return False, am | bm
                if not unknown:
                    unknown = am if a is None else bm
            return (None, unknown) if unknown else (True, reason)
        if isinstance(f, Not):
            v, m = self.justify(f.arg)
            return (None if v is None else not v), m
        if isinstance(f, Iff):
            l, lm = self.justify(f.left)
            r, rm = self.justify(f.right)
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return l == r, lm | rm
        if isinstance(f, Top):
            return True, 0
        if isinstance(f, Bottom):
            return False, 0
        raise TypeError(f"not a formula: {f!r}")


def _oracle_deck(rng):
    """`gen.random_formula` draws, and hand-built `Leq` atoms and atoms of
    each quantifier pair over random terms."""
    for _ in range(120):
        yield random_formula(rng, ("a", "b", "c"), ("r", "s"), depth=3, term_depth=2)
    for _ in range(40):
        left, right = random_set_term(rng), random_set_term(rng)
        yield Leq(left, right)
        for q in QuantPair:
            yield Atom(q, left, right, random_rel_term(rng))


def test_walkers_agree_with_the_frozen_walkers_on_every_state():
    rng = random.Random(1515)
    cases = 0
    for f in _oracle_deck(rng):
        for n in range(4):
            search = _Search(f, n, ("a", "b", "c"), ("r", "s"), None)
            oracle = _FrozenWalkers(search)
            for _ in range(2):
                _random_partial_assignment(rng, search)
                for x in nodes(f):
                    if isinstance(x, Formula):
                        got, want = search.justify(x), oracle.justify(x)
                        assert got == want, (x, n, search.value)
                        cases += 1
                    elif isinstance(x, SetTerm):
                        for i in range(n):
                            got = search.justify(x, i)
                            assert got == oracle.justify_term(x, i), (x, i, search.value)
                            cases += 1
                    else:
                        for i, j in itertools.product(range(n), repeat=2):
                            got = search.justify(x, i * n + j, j * n + i)
                            want = oracle.justify_term(x, i * n + j, j * n + i)
                            assert got == want, (x, i, j, search.value)
                            cases += 1
    assert cases >= 10_000


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
    search.value[:] = [rng.choice(VALUES) for _ in search.value]


def _keep_only(search, mask):
    for k in range(len(search.value)):
        if not mask >> k & 1:
            search.value[k] = None


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
                assert why & (why - 1) == 0
                assert search.value[why.bit_length() - 1] is None
                continue
            decided[value] += 1
            _keep_only(search, why)
            assert search.justify(f)[0] is value, (f, n)
    assert min(decided.values()) > 100  # the sample is not degenerate


def test_symmetry_conflict_is_the_compared_bits():
    search = _Search(P("a <= b"), 3, ["a", "b"], ["r"], None)
    a, b, value = search.set_base["a"], search.set_base["b"], search.value
    bit = lambda k: 1 << k
    value[a], value[a + 1] = True, True
    assert search.unsorted(bit(a + 1)) == 0  # b decides, and is unknown
    value[b], value[b + 1] = True, False
    assert search.unsorted(bit(b + 1)) == bit(a) | bit(a + 1) | bit(b) | bit(b + 1)
    value[b + 1] = True
    value[a + 2], value[b + 2] = False, True
    # point 1 (1, 1) is lex-greater than point 2 (0, 1), found from either side
    assert search.unsorted(bit(a + 2)) == bit(a + 1) | bit(a + 2)
    assert search.unsorted(bit(a + 1)) == bit(a + 1) | bit(a + 2)
    assert search.unsorted(bit(search.rel_base["r"])) == 0


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


def _sizes_searched(f, bound):
    """(nodes, witness) for each size of is_sat's search, up to the first
    witness."""
    for n in range(bound + 1):
        search = _search(f, n)
        witness = search.run()
        yield search.nodes, witness
        if witness is not None:
            return


@pytest.mark.parametrize("name,nodes", [
    ("aa_residuation", [1, 13, 129, 854]),
    ("aa_meet", [1, 13, 129, 868]),
    ("aa_distribute", [1, 11, 169, 4539]),
])
def test_node_counts_per_size_are_pinned(name, nodes):
    entry = next(e for e in paper_corpus() if e.name == name)
    found = list(_sizes_searched(Not(entry.conclusion), 3))
    assert [count for count, _ in found] == nodes
    assert all(witness is None for _, witness in found)


def _pin_deck():
    rng = random.Random(6)
    for _ in range(600):
        f = random_formula(rng, depth=3, term_depth=2)
        yield f
        yield Not(f)
    for entry in paper_corpus():
        yield Not(entry.conclusion)


def test_node_counts_and_witnesses_are_pinned():
    # a change to the search's representation must not change which nodes
    # it visits or which witness it returns; the digest covers every size's
    # node count and every witness over 1,218 queries at bound 3
    digest, total = hashlib.sha256(), 0
    for f in _pin_deck():
        for n, (count, witness) in enumerate(_sizes_searched(f, 3)):
            total += count
            digest.update(f"{n}:{count};".encode())
            if witness is not None:
                digest.update(model_to_json(witness).encode())
        digest.update(b"|")
    assert total == 18645
    assert digest.hexdigest()[:16] == "3dcffaaa5dd0e4f6"


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


def test_the_node_budget_bounds_the_whole_call():
    # sizes 0, 1 and 2 search 1 + 8 + 26 nodes, more than 26 in all, though
    # no one size exceeds it
    hard = P("AA(a,b)[r] & AA(b,c)[s] & EE(a,c)[r*s] & AE(c,a)[-r]")
    assert [nodes for nodes, _ in _sizes_searched(hard, 4)] == [1, 8, 26]
    with pytest.raises(BudgetExceeded, match="search exceeded 26 nodes"):
        is_sat(hard, 4, node_budget=26)
    assert isinstance(is_sat(hard, 4, node_budget=35), Sat)


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
# the small-model cap on the sizes searched
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,bound", [
    ("true", 0), ("false", 0), ("EE(a,b)[r]", 2), ("!EE(a,b)[r]", 0),
    ("AA(a,b)[r]", 0), ("!AA(a,b)[r]", 2), ("a <= b", 0), ("!(a <= b)", 1),
    ("EE(a,b)[r] -> AA(a,b)[r]", 0), ("AA(a,b)[r] -> EE(a,b)[r]", 4),
    ("EE(a,b)[r] <-> a <= b", 3), ("EE(a,b)[r] & !!EE(a,b)[r] | EE(a,b)[r]", 2),
    ("!(EE(a,b)[r] & a <= b) & !(a <= b)", 1),
    ("EE(a,b)[r] & a <= b", 2), ("AE(a,b)[r]", None),
    ("a <= b -> !EA(a,b)[r]", None), ("true -> EA(a,b)[r]", None),
])
def test_small_model_bound_by_hand(text, bound):
    assert small_model_bound(P(text)) == bound


def test_small_model_bound_is_linear_in_the_tree():
    # each Iff child is walked once, with both polarities at once; walking
    # it once per polarity would take 2**2000 steps here
    f = P("EE(a,b)[r]")
    for k in range(2000):
        f = Iff(f, P(f"c{k} <= a"))
    assert small_model_bound(f) == 2 + 2000


def _polarities(f, positive, found):
    """Each atom of f with the polarities of its occurrences, by the
    definitions: `Iff` is the meet of the two implications."""
    if isinstance(f, (Atom, Leq)):
        found.setdefault(f, set()).add(positive)
    elif isinstance(f, Not):
        _polarities(f.arg, not positive, found)
    elif isinstance(f, (And, Or)):
        _polarities(f.left, positive, found)
        _polarities(f.right, positive, found)
    elif isinstance(f, Implies):
        _polarities(f.left, not positive, found)
        _polarities(f.right, positive, found)
    elif isinstance(f, Iff):
        for side in (f.left, f.right):
            _polarities(side, positive, found)
            _polarities(side, not positive, found)
    return found


def _restrict_to_witnesses(m, f):
    """m restricted to the first witness of each true EE atom that occurs
    positively, and of each false AA or `Leq` atom that occurs negatively."""
    keep = set()
    for atom, polarity in _polarities(f, True, {}).items():
        truth = eval_formula(m, atom)
        if isinstance(atom, Leq):
            if False in polarity and not truth:
                a, b = eval_set_term(m, atom.left), eval_set_term(m, atom.right)
                keep.add(next(x for x in m.domain if x in a - b))
            continue
        if (atom.quant, truth) not in ((QuantPair.EE, True), (QuantPair.AA, False)):
            continue
        if (atom.quant is QuantPair.EE) not in polarity:
            continue
        a, b = eval_set_term(m, atom.left), eval_set_term(m, atom.right)
        r = eval_rel_term(m, atom.rel)
        keep.update(next((x, y) for x in m.domain for y in m.domain
                         if x in a and y in b and ((x, y) in r) is truth))
    domain = tuple(x for x in m.domain if x in keep)
    return Model(domain=domain,
                 sets={v: s & keep for v, s in m.sets.items()},
                 rel={v: frozenset((x, y) for x, y in r if x in keep and y in keep)
                      for v, r in m.rel.items()})


def test_restriction_to_the_polarity_witnesses_keeps_a_model():
    # the lemma behind small_model_bound, on seeded models of 0-6 points
    rng = random.Random(19)
    checked = shrunk = 0
    while checked < 2000:
        f = random_formula(rng, depth=3, term_depth=2)
        if any(isinstance(x, Atom) and x.quant in (QuantPair.AE, QuantPair.EA)
               for x in nodes(f)):
            continue
        for _ in range(5):
            m = random_model(rng.randint(0, 6), sorted(free_set_vars(f)),
                             sorted(free_rel_vars(f)), seed=rng.randrange(2 ** 30))
            if not eval_formula(m, f):
                continue
            small = _restrict_to_witnesses(m, f)
            assert eval_formula(small, f), (f, m)
            assert len(small.domain) <= small_model_bound(f), (f, m)
            assert minimize_model(m, f) == small, (f, m)
            checked += 1
            shrunk += len(small.domain) < len(m.domain)
    assert shrunk > 1000  # the restriction does drop points


def _capped_deck():
    rng = random.Random(1919)
    for _ in range(1100):
        f = random_formula(rng, depth=3, term_depth=2)
        yield f
        yield Not(f)
    for entry in paper_corpus():
        yield Not(entry.conclusion)
    for name in AxiomName:
        for _ in range(6):
            f = random_axiom_instance(name, rng)
            yield f
            yield Not(f)


def test_capped_search_equals_the_uncapped_search():
    # is_sat stops at small_model_bound(f); at every bound 0-3 it must give
    # what a loop over every size gives: the same verdict and, for Sat,
    # byte-identical witnesses
    queries = capped = 0
    for f in _capped_deck():
        witness = None
        for n, (_, witness) in enumerate(_sizes_searched(f, 3)):
            pass
        cap = small_model_bound(f)
        for bound in range(4):
            got = is_sat(f, bound)
            if witness is not None and n <= bound:
                assert type(got) is Sat, (f, bound)
                assert model_to_json(got.witness) == model_to_json(witness), (f, bound)
            elif bound >= 2 and bound >= 2 ** formula_size(f):
                assert got == Unsat(), (f, bound)
            else:
                assert got == UnsatUpTo(bound), (f, bound)
            queries += 1
            capped += cap is not None and cap < bound
    assert queries >= 10000
    assert capped >= 1500  # the cap is below the bound in many queries


def test_sizes_searched_stop_at_the_small_model_bound(monkeypatch):
    built = []

    class Spy(_Search):
        def __init__(self, f, n, *args):
            built.append(n)
            super().__init__(f, n, *args)

    monkeypatch.setattr(solver, "_Search", Spy)
    entry = next(e for e in paper_corpus() if e.name == "aa_distribute")
    assert is_sat(Not(entry.conclusion), 4) == UnsatUpTo(4)
    assert built == [0, 1, 2]
    built.clear()
    assert is_sat(P("AE(a,b)[0] & EE(a,b)[1]"), 3) == UnsatUpTo(3)
    assert built == [0, 1, 2, 3]
    # a formula that is not of the source logic gets no cap
    built.clear()
    with pytest.raises(TypeError):
        is_sat(PropVar("p"), 3)
    assert built == [0]
    built.clear()
    assert is_sat(And(Bottom(), PropVar("p")), 3) == UnsatUpTo(3)
    assert built == [0, 1, 2, 3]


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


@pytest.mark.parametrize("f", [PropVar("a"), Diamond(RelVar("r"), Top())])
def test_minimize_rejects_a_modal_formula(f):
    # true in m, but false in the empty model that the atom-free witness
    # rule would keep
    m = Model(domain=("x", "y"), sets={"a": frozenset({"x"})},
              rel={"r": frozenset({("x", "y")})})
    assert eval_formula(m, f)
    with pytest.raises(SolverError, match="source formula"):
        minimize_model(m, f)


def test_minimize_rejects_falsified_formula():
    m = Model(domain=("x",), sets={"a": frozenset({"x"})})
    with pytest.raises(SolverError):
        minimize_model(m, P("EE(a,a)[r]"))


_PIN_ATOMS = ["a <= b", "a * -b <= c", "EE(a,b)[r]", "EE(a*-c,b)[r*s^]", "AA(a,b)[r]",
              "AA(a+c,-b)[-r+s]", "EE(c,c)[-(r+s)]", "AA(b,a)[r^*s]", "1 <= a+b"]


# Each case's kept points and the SHA-256 prefix of model_to_json of the
# result, as the pair-set minimizer returned them before the bitset kernel.
@pytest.mark.parametrize("n,seed,density,kept,digest", [
    (8, 11, 0.5, (0, 1, 2, 4, 5, 7), "0a45e0fbe232d735"),
    (13, 12, 0.2, (0, 1, 3, 4, 5, 8), "8cbd2783a7511544"),
    (21, 13, 0.7, (0, 1, 2, 3, 5, 7, 9, 18), "d7be7d3cb502de43"),
    (34, 14, 0.1, (0, 4, 5, 26), "4333b1d8d2e245bc"),
    (50, 15, 0.5, (0, 1, 3, 4, 5, 6, 8, 10, 14), "ac2d3cb321a319f4"),
    (50, 16, 0.9, (0, 2, 3, 7, 14, 15, 22, 27), "e878b57b5f44690b"),
])
def test_minimize_output_is_pinned(n, seed, density, kept, digest):
    m = random_model(n, ["a", "b", "c"], ["r", "s"], seed=seed, density=density)
    f = P(" & ".join(t if eval_formula(m, P(t)) else f"!({t})" for t in _PIN_ATOMS))
    small = minimize_model(m, f)
    assert small.domain == tuple(m.domain[i] for i in kept)
    assert hashlib.sha256(model_to_json(small).encode()).hexdigest()[:16] == digest


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
