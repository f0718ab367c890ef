"""Axiom matching, tautology checking, rule shapes, and proof checking."""

import dataclasses
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from relsyl import proofs, syntax
from relsyl.corpus import paper_corpus
from relsyl.gen import random_formula
from relsyl.proofs import (
    AxiomName, JAxiom, JMP, JPremise, JRule, JTaut, Mode, Proof,
    ProofFileError, ProofLine, TautologyCapExceeded, Verdict, check_proof,
    check_rule, check_tautology, match_axiom, proof_from_text, proof_to_text,
)
from relsyl.solver import Sat, is_sat
from relsyl.syntax import (
    BOTTOM, TOP, And, Atom, Bottom, Box, Diamond, Iff, Implies, Leq, Not, Or,
    PropVar, QuantPair, RelVar, SetMeet, SetOne, SetVar, Top, atoms_of,
    free_set_vars, parse_formula, print_formula, substitute_set_var, transform,
)

P = parse_formula


# ---------------------------------------------------------------------------
# axiom matching
# ---------------------------------------------------------------------------

def test_a0r_matches_compound_instance():
    assert match_axiom(AxiomName.A0R, P("!EE(a*b, -c)[0]"))


def test_aconv_matches():
    assert match_axiom(AxiomName.ACONV, P("EE(a,b)[r^] <-> EE(b,a)[r]"))


def test_al1_rejects_wrong_argument_order():
    assert match_axiom(AxiomName.AL1, P("AE(a,b)[r] -> a*c = 0 | EE(c,b)[r]"))
    assert not match_axiom(AxiomName.AL1,
                           P("AE(a,b)[r] -> a*c = 0 | EE(b,c)[r]"))


def test_matching_requires_consistent_binding():
    assert match_axiom(AxiomName.BA_REFL, P("a*b <= a*b"))
    assert not match_axiom(AxiomName.BA_REFL, P("a <= b"))


def test_aeq_matches_any_quantifier_pair():
    for q in ("EE", "AE", "AA", "EA"):
        assert match_axiom(AxiomName.AEQ1,
                           P(f"{q}(a,b)[r] & a = c -> {q}(c,b)[r]"))
        assert match_axiom(AxiomName.AEQ2,
                           P(f"{q}(a,b)[r] & b = c -> {q}(a,c)[r]"))
    assert not match_axiom(AxiomName.AEQ1,
                           P("EE(a,b)[r] & a = c -> AE(c,b)[r]"))


def test_aneg_rejects_unnegated_relation():
    assert match_axiom(AxiomName.ANEG, P("AA(a,b)[-r] <-> !EE(a,b)[r]"))
    assert not match_axiom(AxiomName.ANEG, P("AA(a,b)[r] <-> !EE(a,b)[r]"))


def test_axiom_order_is_pinned():
    # the refute deck and `relsyl fuzz` draw instances in this order
    assert [n.value for n in AxiomName] == [
        "BA_REFL", "BA_TRANS", "BA_MEET_L", "BA_MEET_R", "BA_MEET_GLB",
        "BA_JOIN_L", "BA_JOIN_R", "BA_JOIN_LUB", "BA_BOT", "BA_TOP", "BA_DIST",
        "BA_COMPL_MEET", "BA_COMPL_JOIN", "AEQ1", "AEQ2", "A0", "AU1", "AU2",
        "AL1", "AL2", "AL3", "A0R", "A1R", "ACAP", "ACUP", "ANEG", "ACONV"]
    assert [n.name for n in AxiomName] == [n.value for n in AxiomName]
    assert repr(AxiomName.BA_REFL) == "<AxiomName.BA_REFL: 'BA_REFL'>"


def test_match_axiom_substitution_closed():
    rng = random.Random(41)
    from relsyl.gen import random_axiom_instance
    for name in AxiomName:
        for i in range(20):
            inst = random_axiom_instance(name, rng)
            assert match_axiom(name, inst), (name, inst)
            # substituting a variable by a term keeps it an instance
            again = substitute_set_var(inst, "a", SetMeet(SetVar("b"),
                                                          SetVar("c")))
            assert match_axiom(name, again), (name, again)


# ---------------------------------------------------------------------------
# tautology checking
# ---------------------------------------------------------------------------

def test_tautology_identity():
    assert check_tautology(P("EE(a,b)[r] -> EE(a,b)[r]"))


def test_tautology_excluded_middle():
    assert check_tautology(P("EE(a,b)[r] | !EE(a,b)[r]"))


def test_non_tautology():
    assert not check_tautology(P("a <= b -> b <= a"))


def test_tautology_distinguishes_distinct_atoms():
    # same shape, different relational term: two distinct atoms
    assert not check_tautology(P("EE(a,b)[r] -> EE(a,b)[s]"))


def test_tautology_top_bottom():
    assert check_tautology(P("false -> EE(a,b)[r]"))
    assert check_tautology(P("true"))
    assert not check_tautology(P("false"))


def test_tautology_cap():
    big = " | ".join(f"EE(a,b)[r{i}]" for i in range(21))
    with pytest.raises(TautologyCapExceeded):
        check_tautology(P(big))
    # at the cap it still works
    ok = " | ".join(f"EE(a,b)[r{i}]" for i in range(20))
    assert check_tautology(P(ok + " | !EE(a,b)[r0]"))


def test_atoms_stay_opaque_letters():
    # valid in every model, but not a propositional tautology
    assert not check_tautology(P("a <= a"))
    assert not check_tautology(P("AA(a,b)[1]"))
    # atoms that look like the checker's own letters are letters too
    assert not check_tautology(P("1 <= p1 -> 1 <= p0"))
    assert check_tautology(P("1 <= p1 & 1 <= p0 -> 1 <= p0"))
    # no two of 20 distinct atoms share a letter
    atoms = [f"EE(a,b)[r{i}]" for i in range(20)]
    for k in range(20):
        rest = " & ".join(atoms[:k] + atoms[k + 1:])
        assert not check_tautology(P(f"{rest} -> {atoms[k]}")), k


def test_deep_negation_chain_is_decided():
    # the parser, the printer and the solver all take 500 `!`; so must `taut`
    assert check_tautology(P("!" * 500 + "true"))
    assert not check_tautology(P("!" * 501 + "true"))


def _letters_by_transform(f):
    """The letter formula as every node of f used to be rebuilt for it."""
    letters = {a: Leq(SetOne(), SetVar(f"p{k}")) for k, a in enumerate(atoms_of(f))}
    return transform(f, lambda n: letters[n] if isinstance(n, (Leq, Atom)) else n)


def _letter_formula(f):
    """f with its k-th distinct atom replaced by `1 <= p_k`, rebuilt from its
    skeleton read backwards (frozen from the search-based decider)."""
    built = []
    for token in reversed(proofs._skeleton(f)):
        if type(token) is int:
            built.append(Leq(SetOne(), SetVar(f"p{token}")))
        else:
            built.append(token(*[built.pop() for _ in syntax.CHILD_FIELDS[token]]))
    return built[0]


def _tautology_by_search(f):
    """The decider that truth tables replaced, frozen as an oracle: the
    solver's search for a one-point model of the negated letter formula, in
    which each letter `1 <= p_k` is one free bit."""
    return not isinstance(is_sat(Not(_letter_formula(f)), 1), Sat)


def test_skeleton_equals_the_transform_construction(monkeypatch):
    formulas = [ln.formula for e in paper_corpus() for ln in e.proof.lines
                if isinstance(ln.justification, JTaut)]
    assert len(formulas) > 500
    rng = random.Random(909)
    formulas += [random_formula(rng) for _ in range(500)]
    monkeypatch.setattr(proofs, "_TAUT_CAP", 10**6)
    for f in formulas:
        assert _letter_formula(f) == _letters_by_transform(f), print_formula(f)
    monkeypatch.setattr(proofs, "_TAUT_CAP", 2)
    capped = 0
    for f in formulas:
        n = len(atoms_of(f))
        if n > 2:
            with pytest.raises(TautologyCapExceeded) as exc:
                proofs._skeleton(f)
            assert str(exc.value) == f"formula has {n} distinct atoms (cap 2)"
            capped += 1
    assert capped > 100


def _decided(decide, f):
    try:
        return decide(f)
    except TautologyCapExceeded as e:
        return str(e)


def test_tautology_checker_agrees_with_the_search_it_replaced():
    """Every line of the verdict deck (the corpus, its special-rule mutants and
    the seeded `taut` mutants), once each, and random combinations of up to 14
    letters, the most the search decides in good time."""
    formulas = list({id(ln.formula): ln.formula
                     for proof in _verdict_deck() for ln in proof.lines}.values())
    rng = random.Random(1602)
    for _ in range(1300):
        atoms = [random_formula(rng, depth=0) for _ in range(rng.randint(1, 14))]
        f, g = _combination(rng, atoms, 6), _combination(rng, atoms, 4)
        formulas += [f, Or(f, Not(f)), Implies(And(f, g), f), Iff(f, Not(Not(f))),
                     Implies(f, g)]
    verdicts = {}
    for f in formulas:
        want = _decided(_tautology_by_search, f)
        assert _decided(check_tautology, f) == want, print_formula(f)
        verdicts[want] = verdicts.get(want, 0) + 1
    assert len(formulas) >= 10_000
    assert verdicts[True] > 3000 and verdicts[False] > 3000


def _letters(k):
    return [Leq(SetOne(), SetVar(f"x{i}")) for i in range(k)]


def _parity(xs):
    """xs chained by `<->` from the left, `<->` the same chain reversed and
    nested to the right: a tautology whose search grew about 4.5x per two
    letters."""
    return Iff(functools.reduce(Iff, xs), functools.reduce(lambda r, x: Iff(x, r), xs))


def _best_time(decide, f):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        got = decide(f)
        best = min(best, time.perf_counter() - start)
    return got, best


@pytest.mark.parametrize("k", [16, 20])
def test_parity_tautologies_are_decided_quickly(k):
    got, seconds = _best_time(check_tautology, _parity(_letters(k)))
    assert got is True
    assert seconds < 0.05, seconds


def test_a_twenty_letter_non_tautology_is_decided_quickly():
    # false only when every letter is true, the last assignment of all
    xs = _letters(20)
    parity = _parity(xs)
    f = Or(Iff(parity.left, Not(parity.right)), Not(functools.reduce(And, xs)))
    got, seconds = _best_time(check_tautology, f)
    assert got is False
    assert seconds < 0.05, seconds


def test_a_wide_twenty_letter_line_is_decided_in_bounded_memory():
    # left-deep: read backwards, every `!` operand waits for its `|`
    f = P(" | ".join(f"!EE(a,b)[r{i % 20}]" for i in range(600)))
    tracemalloc.start()
    try:
        assert check_tautology(f) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


_X = PropVar("x")
_R_X = Box(RelVar("r"), _X)


@pytest.mark.parametrize("f, first", [
    (_X, _X), (SetVar("a"), SetVar("a")), (Diamond(RelVar("r"), TOP),) * 2,
    (And(P("a <= b"), _R_X), _R_X), (Not(Or(_X, PropVar("y"))), _X),
])
def test_tautology_of_a_non_source_formula_is_a_type_error(f, first):
    with pytest.raises(TypeError) as exc:
        check_tautology(f)
    assert str(exc.value) == f"not a source formula: {first!r}"


def _truth(f, env):
    """Two-valued truth of a propositional combination of atoms."""
    if isinstance(f, (Leq, Atom)):
        return env[f]
    if isinstance(f, Not):
        return not _truth(f.arg, env)
    if isinstance(f, (Top, Bottom)):
        return isinstance(f, Top)
    l, r = _truth(f.left, env), _truth(f.right, env)
    return {And: l and r, Or: l or r, Implies: not l or r, Iff: l == r}[type(f)]


def _truth_table(f):
    atoms = atoms_of(f)
    return all(_truth(f, dict(zip(atoms, row)))
               for row in itertools.product((False, True), repeat=len(atoms)))


def _combination(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        return rng.choice(atoms) if roll < 0.9 else TOP if roll < 0.95 else BOTTOM
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_combination(rng, atoms, depth - 1))
    return (And, Or, Implies, Iff)[kind - 1](_combination(rng, atoms, depth - 1),
                                             _combination(rng, atoms, depth - 1))


def test_tautology_checker_agrees_with_the_truth_table():
    rng = random.Random(2011)
    verdicts = {False: 0, True: 0}
    for _ in range(500):
        atoms = [random_formula(rng, depth=0) for _ in range(rng.randint(1, 6))]
        f, g = _combination(rng, atoms, 4), _combination(rng, atoms, 3)
        for h in (f, Or(f, Not(f)), Implies(And(f, g), f), Iff(f, Not(Not(f)))):
            want = _truth_table(h)
            assert check_tautology(h) is want, print_formula(h)
            verdicts[want] += 1
    assert min(verdicts.values()) > 300  # the sample is not degenerate


# ---------------------------------------------------------------------------
# rule shapes and side conditions
# ---------------------------------------------------------------------------

def test_r1_shape():
    prem = P("EE(c,c)[r] -> a*p = 0 | EE(p,b)[s]")
    concl = P("EE(c,c)[r] -> AE(a,b)[s]")
    assert check_rule("R1", prem, concl, "p")


def test_r1_side_condition_special_in_a():
    prem = P("EE(c,c)[r] -> a*a = 0 | EE(a,b)[s]")
    concl = P("EE(c,c)[r] -> AE(a,b)[s]")
    assert not check_rule("R1", prem, concl, "a")


def test_r1_side_condition_special_in_context():
    prem = P("EE(p,p)[r] -> a*p = 0 | EE(p,b)[s]")
    concl = P("EE(p,p)[r] -> AE(a,b)[s]")
    assert not check_rule("R1", prem, concl, "p")


def test_r2_shape():
    prem = P("true -> b*p = 0 | AE(a,p)[s]")
    concl = P("true -> AA(a,b)[s]")
    assert check_rule("R2", prem, concl, "p")


def test_r3_shape():
    prem = P("true -> a*p = 0 | !AA(p,b)[s]")
    concl = P("true -> !EA(a,b)[s]")
    assert check_rule("R3", prem, concl, "p")


def test_rule_rejects_wrong_premise():
    prem = P("true -> a*p = 0 | EE(b,p)[s]")  # arguments swapped
    concl = P("true -> AE(a,b)[s]")
    assert not check_rule("R1", prem, concl, "p")


def test_rule_and_premise_lines_compare_deep_formulas():
    # each formula parsed twice, so that no comparison meets the same object
    x = "!" * 600 + "(c <= c)"
    prem = P(f"{x} -> a*p = 0 | EE(p,b)[s]")
    assert check_rule("R1", prem, P(f"{x} -> AE(a,b)[s]"), "p")
    assert not check_rule("R1", prem, P(f"!{x} -> AE(a,b)[s]"), "p")
    proof = Proof(Mode.FROM_PREMISES, (P(x),), (ProofLine(1, P(x), JPremise()),))
    assert check_proof(proof)
    proof = Proof(Mode.FROM_PREMISES, (P(x),), (ProofLine(1, P("!" + x), JPremise()),))
    assert check_proof(proof).reason == "formula is not among the premises"
    y = "a" + "+a" * ((syntax.MAX_DEPTH - 1) // 3) + " <= a"  # the deepest term parsed
    proof = Proof(Mode.FROM_PREMISES, (P(y),), (ProofLine(1, P(y), JPremise()),))
    assert check_proof(proof)


def test_rs_shape():
    prem = P("a*p = 0 | EE(p,p)[r]")
    concl = P("a = 0 | EE(a,a)[r*(s^ + -s)]")
    assert check_rule("RS", prem, concl, "p")


def test_rs_side_condition():
    prem = P("(a*p)*p = 0 | EE(p,p)[r]")
    concl = P("a*p = 0 | EE(a*p,a*p)[r*(s^ + -s)]")
    assert not check_rule("RS", prem, concl, "p")


def test_rs_rejects_plain_relation_in_conclusion():
    prem = P("a*p = 0 | EE(p,p)[r]")
    concl = P("a = 0 | EE(a,a)[r]")
    assert not check_rule("RS", prem, concl, "p")


@pytest.mark.parametrize("concl", [
    "a = 0 | EE(a,a)[r*(s^ + -t)]",
    "a = 0 | EE(a,a)[r*(t^ + -s)]",
    "a = 0 | EE(a,b)[r*(s^ + -s)]",
    "a = 0 | EE(b,a)[r*(s^ + -s)]",
    "b = 0 | EE(a,a)[r*(s^ + -s)]",
    "a*a = 0 | EE(a,a)[r*(s^ + -s)]",
    "a = 1 | EE(a,a)[r*(s^ + -s)]",
    "AA(a,a)[r*(s^ + -s)] | a = 0",
    "a = 0 | AA(a,a)[r*(s^ + -s)]",
    "a = 0 | AE(a,a)[r*(s^ + -s)]",
    "a = 0 | EE(a,a)[r*(-s + s^)]",
    "a = 0 | EE(a,a)[(s^ + -s)*r]",
    "a = 0 | EE(a,a)[r*(s + -s)]",
    "a = 0 | EE(a,a)[r*(s^ + s)]",
    "a = 0 | EE(a,a)[r*(s^ * -s)]",
    "a = 0 | !EE(a,a)[r*(s^ + -s)]",
    "a = 0 & EE(a,a)[r*(s^ + -s)]",
], ids=["compl_other", "conv_other", "right_set_other", "left_set_other",
        "eq0_other", "eq0_meet", "eq1", "swapped_disjuncts", "aa", "ae",
        "join_swapped", "meet_swapped", "no_converse", "no_complement",
        "meet_for_join", "negated_atom", "conjunction"])
def test_rs_rejects_near_misses(concl):
    assert check_rule("RS", P("a*p = 0 | EE(p,p)[r]"), P(concl), "p") is False


def test_rs_rejects_a_premise_off_the_shape():
    concl = P("a = 0 | EE(a,a)[r*(s^ + -s)]")
    for prem in ("a*p = 0 | EE(p,p)[s]", "p*a = 0 | EE(p,p)[r]",
                 "a*p = 0 | EE(p,a)[r]", "a*p = 0 | AA(p,p)[r]"):
        assert check_rule("RS", P(prem), concl, "p") is False, prem


def _oracle_match(scheme, f, sbind, rbind):
    """Scheme matching with one binding map per sort, as RS was matched
    before every rule became a scheme pair."""
    if isinstance(scheme, SetVar):
        if not isinstance(f, syntax.SetTerm):
            return False
        return sbind.setdefault(scheme.name, f) == f
    if isinstance(scheme, RelVar):
        if not isinstance(f, syntax.RelTerm):
            return False
        return rbind.setdefault(scheme.name, f) == f
    if type(scheme) is not type(f):
        return False
    if isinstance(scheme, Atom) and scheme.quant is not f.quant:
        return False
    return all(_oracle_match(getattr(scheme, name), getattr(f, name), sbind, rbind)
               for name in syntax.CHILD_FIELDS[type(scheme)])


_ORACLE_RULES = {
    "R1": (QuantPair.AE, QuantPair.EE, "left", False),
    "R2": (QuantPair.AA, QuantPair.AE, "right", False),
    "R3": (QuantPair.EA, QuantPair.AA, "left", True),
}
_ORACLE_RS = P("a = 0 | EE(a,a)[al * (be^ + -be)]")


def _oracle_check_rule(name, premise, conclusion, special):
    """The rule checker that rebuilt each expected premise from the
    conclusion: R1-R3 from a row (conclusion pair, premise pair, slot,
    negated), RS from its matched conclusion."""
    p = SetVar(special)

    def eq0(t):
        return syntax.equals(t, syntax.SetZero())

    if name in _ORACLE_RULES:
        quant, premise_quant, slot, negated = _ORACLE_RULES[name]
        if not isinstance(conclusion, Implies):
            return False
        phi, atom = conclusion.left, conclusion.right
        is_not = isinstance(atom, Not)
        if is_not:
            atom = atom.arg
        if not (is_not == negated and isinstance(atom, Atom) and atom.quant is quant):
            return False
        y = dataclasses.replace(atom, quant=premise_quant, **{slot: p})
        want = Implies(phi, Or(eq0(SetMeet(getattr(atom, slot), p)), Not(y) if negated else y))
        side = special not in free_set_vars(phi) | free_set_vars(atom.left) | free_set_vars(atom.right)
        return side and proofs._same(premise, want)
    sbind, rbind = {}, {}
    if not _oracle_match(_ORACLE_RS, conclusion, sbind, rbind):
        return False
    a = sbind["a"]
    want = Or(eq0(SetMeet(a, p)), Atom(QuantPair.EE, p, p, rbind["al"]))
    return special not in free_set_vars(a) and proofs._same(premise, want)


def _rule_mutants(f, rng):
    """f with one seeded edit each: an atom's pair swapped, its slots swapped,
    a `!` added before it or dropped, and the antecedent phi changed."""
    atoms = [g for g in syntax.nodes(f) if isinstance(g, Atom)]
    out = []
    if atoms:
        atom = rng.choice(atoms)
        other = rng.choice([q for q in QuantPair if q is not atom.quant])
        for new in (dataclasses.replace(atom, quant=other),
                    dataclasses.replace(atom, left=atom.right, right=atom.left),
                    Not(atom)):
            out.append(transform(f, lambda n: new if n == atom else n))
    negated = [g for g in syntax.nodes(f) if isinstance(g, Not) and isinstance(g.arg, Atom)]
    if negated:
        drop = rng.choice(negated)
        out.append(transform(f, lambda n: drop.arg if n == drop else n))
    if isinstance(f, Implies):
        out += [Implies(Not(f.left), f.right), Implies(random_formula(rng), f.right)]
    return out


def _rule_cases():
    """(premise, conclusion) pairs with the specials to try them under: every
    corpus rule line, its seeded mutants, the RS near misses and a deep phi."""
    rng = random.Random(1414)
    cases = []
    for e in paper_corpus():
        by_index = {ln.index: ln.formula for ln in e.proof.lines}
        for ln in e.proof.lines:
            if not isinstance(ln.justification, JRule):
                continue
            prem, concl = by_index[ln.justification.source], ln.formula
            specials = sorted(free_set_vars(prem) | free_set_vars(concl)) + ["fresh"]
            cases.append((prem, concl, specials))
            mine = [ln.justification.special, "fresh"]
            cases += [(prem, m, mine) for m in _rule_mutants(concl, rng)]
            cases += [(m, concl, mine) for m in _rule_mutants(prem, rng)]
    near = next(m for m in test_rs_rejects_near_misses.pytestmark if m.name == "parametrize")
    for text in near.args[1] + ["a = 0 | EE(a,a)[r*(s^ + -s)]"]:
        cases.append((P("a*p = 0 | EE(p,p)[r]"), P(text), ["p", "a", "fresh"]))
    x = "!" * 600 + "(c <= c)"
    for concl in (f"{x} -> AE(a,b)[s]", f"!{x} -> AE(a,b)[s]"):
        cases.append((P(f"{x} -> a*p = 0 | EE(p,b)[s]"), P(concl), ["p", "c"]))
    return cases


def test_each_premise_scheme_adds_only_p_to_its_conclusion_scheme():
    # check_rule binds the premise scheme's metavariables by matching the
    # conclusion first, so a new one there would bind to whatever it met
    def metavariables(x):
        return {n for n in syntax.nodes(x) if type(n) in syntax.VARIABLE_SORTS}

    for name, (conclusion, premise) in proofs._RULES.items():
        assert metavariables(premise) <= metavariables(conclusion) | {SetVar("p")}, name
        assert SetVar("p") not in metavariables(conclusion), name


def test_check_rule_agrees_with_its_frozen_oracle():
    verdicts = {True: 0, False: 0}
    for prem, concl, specials in _rule_cases():
        for name in ("R1", "R2", "R3", "RS"):
            for special in specials:
                want = _oracle_check_rule(name, prem, concl, special)
                assert check_rule(name, prem, concl, special) is want, (
                    name, special, print_formula(prem), print_formula(concl))
                verdicts[want] += 1
    assert verdicts[True] >= 167 and sum(verdicts.values()) >= 5000, verdicts


# ---------------------------------------------------------------------------
# proof checking
# ---------------------------------------------------------------------------

def _theorem(lines):
    return Proof(mode=Mode.THEOREM, premises=(), lines=tuple(lines))


def test_small_theorem_accepted():
    lines = [
        ProofLine(1, P("AE(a,b)[r] -> a*p = 0 | EE(p,b)[r]"),
                  JAxiom(AxiomName.AL1)),
        ProofLine(2, P("AE(a,b)[r] -> AE(a,b)[r]"), JRule("R1", 1, "p")),
    ]
    assert check_proof(_theorem(lines)).ok


def test_mp_citing_non_implication_rejected():
    lines = [
        ProofLine(1, P("a <= a"), JAxiom(AxiomName.BA_REFL)),
        ProofLine(2, P("b <= b"), JAxiom(AxiomName.BA_REFL)),
        ProofLine(3, P("a <= b"), JMP(1, 2)),
    ]
    verdict = check_proof(_theorem(lines))
    assert not verdict.ok
    assert verdict.bad_line == 3


def test_wrong_axiom_name_rejected():
    lines = [ProofLine(1, P("a <= a"), JAxiom(AxiomName.BA_TRANS))]
    verdict = check_proof(_theorem(lines))
    assert not verdict.ok and verdict.bad_line == 1


def test_indices_must_increase():
    lines = [
        ProofLine(2, P("a <= a"), JAxiom(AxiomName.BA_REFL)),
        ProofLine(1, P("b <= b"), JAxiom(AxiomName.BA_REFL)),
    ]
    assert not check_proof(_theorem(lines)).ok


def test_citation_must_be_earlier():
    lines = [
        ProofLine(1, P("a <= a -> a <= a"), JMP(1, 1)),
    ]
    assert not check_proof(_theorem(lines)).ok


def test_rule_must_cite_an_earlier_line():
    lines = [
        ProofLine(1, P("AE(a,b)[r] -> AE(a,b)[r]"), JRule("R1", 2, "p")),
        ProofLine(2, P("AE(a,b)[r] -> a*p = 0 | EE(p,b)[r]"),
                  JAxiom(AxiomName.AL1)),
    ]
    assert check_proof(_theorem(lines)) == Verdict(
        False, 1, "rule cites a missing earlier line")


def test_premise_mode_accepts_premises_and_mp():
    prem = [P("EE(a,b)[r]"), P("EE(a,b)[r] -> EE(b,a)[r^]")]
    lines = [
        ProofLine(1, prem[0], JPremise()),
        ProofLine(2, prem[1], JPremise()),
        ProofLine(3, P("EE(b,a)[r^]"), JMP(1, 2)),
    ]
    proof = Proof(mode=Mode.FROM_PREMISES, premises=tuple(prem),
                  lines=tuple(lines))
    assert check_proof(proof).ok


def test_premise_mode_rejects_special_rules():
    prem = [P("AE(a,b)[r] -> a*p = 0 | EE(p,b)[r]")]
    lines = [
        ProofLine(1, prem[0], JPremise()),
        ProofLine(2, P("AE(a,b)[r] -> AE(a,b)[r]"), JRule("R1", 1, "p")),
    ]
    proof = Proof(mode=Mode.FROM_PREMISES, premises=tuple(prem),
                  lines=tuple(lines))
    verdict = check_proof(proof)
    assert not verdict.ok and verdict.bad_line == 2


def test_unknown_rule_is_a_rejected_line():
    # check_proof used to let check_rule's ValueError escape
    lines = [
        ProofLine(1, P("AE(a,b)[r] -> a*p = 0 | EE(p,b)[r]"),
                  JAxiom(AxiomName.AL1)),
        ProofLine(2, P("AE(a,b)[r] -> AE(a,b)[r]"), JRule("R9", 1, "p")),
    ]
    assert check_proof(_theorem(lines)) == Verdict(False, 2, "unknown rule 'R9'")
    with pytest.raises(ValueError, match="unknown rule 'R9'"):
        check_rule("R9", lines[0].formula, lines[1].formula, "p")


def test_theorem_mode_rejects_premise_lines():
    lines = [ProofLine(1, P("EE(a,b)[r]"), JPremise())]
    assert not check_proof(_theorem(lines)).ok


def test_unlisted_premise_rejected():
    proof = Proof(mode=Mode.FROM_PREMISES, premises=(P("EE(a,b)[r]"),),
                  lines=(ProofLine(1, P("EE(b,a)[r]"), JPremise()),))
    assert not check_proof(proof).ok


def _taut_lines(proof):
    return [ln for ln in proof.lines if isinstance(ln.justification, JTaut)]


def test_each_distinct_skeleton_is_decided_once_per_call(monkeypatch):
    decided = []
    decide = proofs.check_tautology

    def counting_check_tautology(f):
        decided.append(f)
        return decide(f)

    monkeypatch.setattr(proofs, "check_tautology", counting_check_tautology)
    lines = distinct = 0
    for e in paper_corpus():
        taut = _taut_lines(e.proof)
        want = len({_letters_by_transform(ln.formula) for ln in taut})
        for _ in range(2):  # a second call starts with no verdicts
            decided.clear()
            assert check_proof(e.proof).ok
            assert len(decided) == want, e.name
        lines += len(taut)
        distinct += want
    assert (lines, distinct) == (550, 134)


def test_each_taut_line_is_walked_once(monkeypatch):
    walked = []
    walk = proofs._skeleton

    def counting_skeleton(f):
        walked.append(f)
        return walk(f)

    monkeypatch.setattr(proofs, "_skeleton", counting_skeleton)
    total = 0
    for e in paper_corpus():
        walked.clear()
        assert check_proof(e.proof).ok
        assert len(walked) == len(_taut_lines(e.proof)), e.name
        total += len(walked)
    assert total == 550


def test_check_tautology_takes_a_formula_or_its_skeleton():
    for text in ("a <= b -> a <= b", "a <= b -> b <= a", "!(EE(a,b)[r] & !EE(a,b)[r])"):
        f = parse_formula(text)
        assert check_tautology(proofs._skeleton(f)) == check_tautology(f)


def _check_each_taut_line_alone(proof):
    """check_proof with every `taut` line decided on its own by check_tautology."""
    by_index = {}
    prev = 0
    for line in proof.lines:
        if line.index <= prev:
            return Verdict(False, line.index, "line indices must strictly increase")
        prev = line.index
        j = line.justification
        if isinstance(j, JAxiom):
            if not match_axiom(j.name, line.formula):
                return Verdict(False, line.index, f"not an instance of axiom {j.name.value}")
        elif isinstance(j, JTaut):
            try:
                ok = check_tautology(line.formula)
            except TautologyCapExceeded as e:
                return Verdict(False, line.index, str(e))
            if not ok:
                return Verdict(False, line.index, "not a tautology")
        elif isinstance(j, JPremise):
            if proof.mode is not Mode.FROM_PREMISES:
                return Verdict(False, line.index, "premise line outside premises mode")
            if line.formula not in proof.premises:
                return Verdict(False, line.index, "formula is not among the premises")
        elif isinstance(j, JMP):
            if j.i not in by_index or j.j not in by_index:
                return Verdict(False, line.index, "mp cites a missing earlier line")
            major = by_index[j.j]
            if not isinstance(major, Implies):
                return Verdict(False, line.index, "mp major premise is not an implication")
            if major.left != by_index[j.i] or major.right != line.formula:
                return Verdict(False, line.index, "mp shape mismatch")
        else:
            if proof.mode is Mode.FROM_PREMISES:
                return Verdict(False, line.index,
                               "special rules are not allowed in premises mode")
            if j.source not in by_index:
                return Verdict(False, line.index, "rule cites a missing earlier line")
            if not check_rule(j.rule, by_index[j.source], line.formula, j.special):
                return Verdict(False, line.index,
                               f"rule {j.rule} shape or side condition fails")
        by_index[line.index] = line.formula
    if not proof.lines:
        return Verdict(False, None, "empty proof")
    return Verdict(True)


def _with_lines(proof, changes):
    """proof with the line at each position in `changes` given its new formula
    or justification."""
    lines = list(proof.lines)
    for pos, new in changes.items():
        field = "justification" if isinstance(new, JRule) else "formula"
        lines[pos] = dataclasses.replace(lines[pos], **{field: new})
    return dataclasses.replace(proof, lines=tuple(lines))


def _verdict_deck():
    """Corpus proofs, their special-rule mutants (as in test_corpus.py) and
    seeded mutants of their `taut` lines."""
    rng = random.Random(1111)
    deck = []
    for e in paper_corpus():
        proof = e.proof
        deck.append(proof)
        taut = [pos for pos, ln in enumerate(proof.lines)
                if isinstance(ln.justification, JTaut)]
        for pos, ln in enumerate(proof.lines):
            if isinstance(ln.justification, JRule):
                clash = sorted(free_set_vars(ln.formula))[0]
                deck.append(_with_lines(proof, {
                    pos: dataclasses.replace(ln.justification, special=clash)}))
        for _ in range(6 if len(taut) > 1 else 0):
            i, k = sorted(rng.sample(taut, 2))
            f = proof.lines[i].formula
            bad = And(f, rng.choice(atoms_of(f)))  # false when that atom is
            deck += [
                _with_lines(proof, {i: bad}),
                _with_lines(proof, {i: Not(f)}),
                # a non-tautology whose skeleton a later line repeats
                _with_lines(proof, {i: bad, k: _letters_by_transform(bad)}),
                # a later line that repeats an earlier tautology's skeleton
                _with_lines(proof, {k: _letters_by_transform(f)}),
            ]
    return deck


def test_verdicts_equal_deciding_each_taut_line_alone():
    deck = _verdict_deck()
    reasons = {}
    for proof in deck:
        verdict = check_proof(proof)
        assert verdict == _check_each_taut_line_alone(proof), proof_to_text(proof)
        reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
    assert len(deck) > 500
    assert reasons[""] >= 18 and reasons["not a tautology"] > 200


def test_a_taut_line_over_the_cap_is_rejected_in_order():
    big = P(" | ".join(f"EE(a,b)[r{i}]" for i in range(21)))
    ok = P("EE(a,b)[r] -> EE(a,b)[r]")
    lines = [ProofLine(1, ok, JTaut()), ProofLine(2, P("EE(a,b)[s] -> EE(a,b)[s]"), JTaut()),
             ProofLine(3, big, JTaut()), ProofLine(4, P("false"), JTaut())]
    proof = _theorem(lines)
    want = Verdict(False, 3, "formula has 21 distinct atoms (cap 20)")
    assert check_proof(proof) == _check_each_taut_line_alone(proof) == want


# ---------------------------------------------------------------------------
# proof files
# ---------------------------------------------------------------------------

PROOF_TEXT = """\
# derive AE(a,b)[r] -> AE(a,b)[r] via the first linking axiom
mode: theorem
1: AE(a,b)[r] -> a*p = 0 | EE(p,b)[r] ; axiom AL1
2: AE(a,b)[r] -> AE(a,b)[r] ; R1 1 p
"""


def test_proof_file_parses_and_checks():
    proof = proof_from_text(PROOF_TEXT)
    assert proof.mode is Mode.THEOREM
    assert len(proof.lines) == 2
    assert check_proof(proof).ok


def test_proof_file_round_trip():
    proof = proof_from_text(PROOF_TEXT)
    again = proof_from_text(proof_to_text(proof))
    assert again == proof


def test_the_corpus_prints_as_pinned():
    # sha256 of the 18 proofs' texts, concatenated in corpus order
    entries = paper_corpus()
    text = "".join(proof_to_text(e.proof) for e in entries)
    assert len(entries) == 18
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "297ed34c9ab11db54eb4eec13477f49232f2567fbb2800760bc07ca3ffd7e34c")


_CORPUS_DIGEST = """
import hashlib
from relsyl.corpus import paper_corpus
from relsyl.proofs import proof_to_text
text = "".join(proof_to_text(e.proof) for e in paper_corpus())
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_the_corpus_is_the_same_under_python_O():
    # `python -O` drops assert statements: the corpus must not build in one
    text = "".join(proof_to_text(e.proof) for e in paper_corpus())
    src = os.path.dirname(os.path.dirname(proofs.__file__))  # the tested copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _CORPUS_DIGEST], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == hashlib.sha256(text.encode()).hexdigest()


def test_reading_the_corpus_raises_no_parse_error(monkeypatch):
    # Every `(` that opens a group of set-term tokens only is tried as the
    # start of a set atom; on valid text no reading fails and backtracks.
    raised = []
    init = syntax.ParseError.__init__

    def counting_init(self, *args, **kwargs):
        raised.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(syntax.ParseError, "__init__", counting_init)
    for e in paper_corpus():
        assert proof_from_text(proof_to_text(e.proof)) == e.proof
    assert raised == []


def test_premises_file_round_trip():
    text = """\
mode: premises
premise: EE(a,b)[r]
premise: EE(a,b)[r] -> EE(b,a)[r^]
1: EE(a,b)[r] ; premise
2: EE(a,b)[r] -> EE(b,a)[r^] ; premise
3: EE(b,a)[r^] ; mp 1 2
"""
    proof = proof_from_text(text)
    assert proof.mode is Mode.FROM_PREMISES
    assert check_proof(proof).ok
    assert proof_from_text(proof_to_text(proof)) == proof


def test_bad_proof_file_rejected():
    with pytest.raises(ProofFileError):
        proof_from_text("mode: theorem\n1: a <= a ; wizardry")
    with pytest.raises(ProofFileError):
        proof_from_text("1: a <= a ; taut")  # missing mode header


@pytest.mark.parametrize("text", [
    "mode: theorem\npremise: false\n1: a <= a ; axiom BA_REFL\n",
    "premise: false\nmode: theorem\n1: a <= a ; axiom BA_REFL\n",
], ids=["header_first", "premise_first"])
def test_premise_rejected_in_theorem_mode(text):
    # the premise used to be silently ignored, whichever line came first
    with pytest.raises(ProofFileError, match="premise"):
        proof_from_text(text)
