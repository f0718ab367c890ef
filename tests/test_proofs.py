"""Axiom matching, tautology checking, rule shapes, and proof checking."""

import itertools
import random

import pytest

from relsyl.gen import random_formula
from relsyl.proofs import (
    AxiomName, JAxiom, JMP, JPremise, JRule, JTaut, Mode, Proof,
    ProofFileError, ProofLine, TautologyCapExceeded, check_proof, check_rule,
    check_tautology, match_axiom, proof_from_text, proof_to_text,
)
from relsyl.syntax import (
    BOTTOM, TOP, And, Atom, Bottom, Iff, Implies, Leq, Not, Or, QuantPair,
    RelVar, SetMeet, SetVar, Top, atoms_of, parse_formula, print_formula,
    substitute_set_var,
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


def test_theorem_mode_rejects_premise_lines():
    lines = [ProofLine(1, P("EE(a,b)[r]"), JPremise())]
    assert not check_proof(_theorem(lines)).ok


def test_unlisted_premise_rejected():
    proof = Proof(mode=Mode.FROM_PREMISES, premises=(P("EE(a,b)[r]"),),
                  lines=(ProofLine(1, P("EE(b,a)[r]"), JPremise()),))
    assert not check_proof(proof).ok


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
