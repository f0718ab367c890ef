"""Hilbert-style proof checking.

Axiom lines are checked by structural matching against the scheme table
(set metavariables match arbitrary set terms, relational metavariables
arbitrary relational terms, and the equality-scheme quantifier ranges
over all four quantifier pairs).  Propositional steps are justified by a
`taut` line: a validity over the formula's atomic subformulas, decided by
the solver's search at one point with each atom read as a letter.  The four
special rules R1-R3 and RS reconstruct their expected premise from the
conclusion and the declared special variable, so rule checking is a
structural comparison plus a side condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Union

from .solver import Sat, is_sat
from .syntax import (
    CHILD_FIELDS, Atom, Formula, Implies, Leq, Not, Or, ParseError, QuantPair,
    RelCompl, RelConv, RelJoin, RelMeet, RelTerm, RelVar, SetMeet, SetOne,
    SetTerm, SetVar, SetZero, atoms_of, equals, free_set_vars, parse_formula,
    print_formula, transform,
)


class AxiomName(Enum):
    # Boolean algebra for set terms, via <=
    BA_REFL = "BA_REFL"
    BA_TRANS = "BA_TRANS"
    BA_MEET_L = "BA_MEET_L"
    BA_MEET_R = "BA_MEET_R"
    BA_MEET_GLB = "BA_MEET_GLB"
    BA_JOIN_L = "BA_JOIN_L"
    BA_JOIN_R = "BA_JOIN_R"
    BA_JOIN_LUB = "BA_JOIN_LUB"
    BA_BOT = "BA_BOT"
    BA_TOP = "BA_TOP"
    BA_DIST = "BA_DIST"
    BA_COMPL_MEET = "BA_COMPL_MEET"
    BA_COMPL_JOIN = "BA_COMPL_JOIN"
    # equality congruence for quantified atoms
    AEQ1 = "AEQ1"
    AEQ2 = "AEQ2"
    # existential atoms
    A0 = "A0"
    AU1 = "AU1"
    AU2 = "AU2"
    # linking axioms
    AL1 = "AL1"
    AL2 = "AL2"
    AL3 = "AL3"
    # relational constants
    A0R = "A0R"
    A1R = "A1R"
    # relational operations
    ACAP = "ACAP"
    ACUP = "ACUP"
    ANEG = "ANEG"
    ACONV = "ACONV"


_SCHEME_TEXT = {
    AxiomName.BA_REFL: "a <= a",
    AxiomName.BA_TRANS: "a <= b & b <= c -> a <= c",
    AxiomName.BA_MEET_L: "a*b <= a",
    AxiomName.BA_MEET_R: "a*b <= b",
    AxiomName.BA_MEET_GLB: "c <= a & c <= b -> c <= a*b",
    AxiomName.BA_JOIN_L: "a <= a+b",
    AxiomName.BA_JOIN_R: "b <= a+b",
    AxiomName.BA_JOIN_LUB: "a <= c & b <= c -> a+b <= c",
    AxiomName.BA_BOT: "0 <= a",
    AxiomName.BA_TOP: "a <= 1",
    AxiomName.BA_DIST: "a*(b+c) <= (a*b)+(a*c)",
    AxiomName.BA_COMPL_MEET: "a*-a <= 0",
    AxiomName.BA_COMPL_JOIN: "1 <= a+-a",
    AxiomName.A0: "a = 0 | b = 0 -> !EE(a,b)[al]",
    AxiomName.AU1: "EE(a+b,c)[al] <-> EE(a,c)[al] | EE(b,c)[al]",
    AxiomName.AU2: "EE(a,b+c)[al] <-> EE(a,b)[al] | EE(a,c)[al]",
    AxiomName.AL1: "AE(a,b)[al] -> a*c = 0 | EE(c,b)[al]",
    AxiomName.AL2: "AA(a,b)[al] -> b*c = 0 | AE(a,c)[al]",
    AxiomName.AL3: "!EA(a,b)[al] -> a*c = 0 | !AA(c,b)[al]",
    AxiomName.A0R: "!EE(a,b)[0]",
    AxiomName.A1R: "AA(a,b)[1]",
    AxiomName.ACAP: "AA(a,b)[al*be] <-> AA(a,b)[al] & AA(a,b)[be]",
    AxiomName.ACUP: "EE(a,b)[al+be] <-> EE(a,b)[al] | EE(a,b)[be]",
    AxiomName.ANEG: "AA(a,b)[-al] <-> !EE(a,b)[al]",
    AxiomName.ACONV: "EE(a,b)[al^] <-> EE(b,a)[al]",
}


@lru_cache(maxsize=None)
def _schemes(name: AxiomName) -> tuple[Formula, ...]:
    if name in (AxiomName.AEQ1, AxiomName.AEQ2):
        out = []
        for q in QuantPair:
            if name is AxiomName.AEQ1:
                text = f"{q.value}(a,b)[al] & a = c -> {q.value}(c,b)[al]"
            else:
                text = f"{q.value}(a,b)[al] & b = c -> {q.value}(a,c)[al]"
            out.append(parse_formula(text))
        return tuple(out)
    return (parse_formula(_SCHEME_TEXT[name]),)


def _match(scheme, f, sbind: dict, rbind: dict) -> bool:
    """Match f against a scheme; every variable in the scheme is a metavariable."""
    if isinstance(scheme, SetVar):
        if not isinstance(f, SetTerm):
            return False
        seen = sbind.get(scheme.name)
        if seen is None:
            sbind[scheme.name] = f
            return True
        return seen == f
    if isinstance(scheme, RelVar):
        if not isinstance(f, RelTerm):
            return False
        seen = rbind.get(scheme.name)
        if seen is None:
            rbind[scheme.name] = f
            return True
        return seen == f
    if type(scheme) is not type(f):
        return False
    if isinstance(scheme, Atom) and scheme.quant is not f.quant:
        return False
    for name in CHILD_FIELDS[type(scheme)]:
        if not _match(getattr(scheme, name), getattr(f, name), sbind, rbind):
            return False
    return True  # same-type leaf constants are equal


def match_axiom(name: AxiomName, f: Formula) -> bool:
    return any(_match(s, f, {}, {}) for s in _schemes(name))


# ---------------------------------------------------------------------------
# Tautology checking
# ---------------------------------------------------------------------------

class TautologyCapExceeded(ValueError):
    pass


def check_tautology(f: Formula, cap: int = 20) -> bool:
    """True iff f holds under every Boolean assignment to its atoms.

    Atoms (Leq and quantified atoms) are opaque propositional letters.
    Each distinct atom becomes a fresh letter `1 <= p_k`, whose truth at
    the single point of a one-point model is one free bit, so the solver's
    search over models of size at most 1 decides the question.  The empty
    model is the all-true assignment, so trying it is sound.
    """
    atoms = atoms_of(f)
    if len(atoms) > cap:
        raise TautologyCapExceeded(
            f"formula has {len(atoms)} distinct atoms (cap {cap})")
    letters = {a: Leq(SetOne(), SetVar(f"p{k}")) for k, a in enumerate(atoms)}
    g = transform(f, lambda n: letters[n] if isinstance(n, (Leq, Atom)) else n)
    return not isinstance(is_sat(Not(g), 1), Sat)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _eq0(t: SetTerm) -> Formula:
    return equals(t, SetZero())


def check_rule(name: str, premise: Formula, conclusion: Formula, special: str) -> bool:
    """Does `conclusion` follow from `premise` by the named special rule?

    The expected premise is reconstructed from the conclusion and the
    special variable and compared structurally.
    """
    p = SetVar(special)
    if name == "R1":
        if not (isinstance(conclusion, Implies) and isinstance(conclusion.right, Atom)
                and conclusion.right.quant is QuantPair.AE):
            return False
        phi, atom = conclusion.left, conclusion.right
        want = Implies(phi, Or(_eq0(SetMeet(atom.left, p)),
                               Atom(QuantPair.EE, p, atom.right, atom.rel)))
        side = special not in free_set_vars(phi) | free_set_vars(atom.left) | free_set_vars(atom.right)
        return premise == want and side
    if name == "R2":
        if not (isinstance(conclusion, Implies) and isinstance(conclusion.right, Atom)
                and conclusion.right.quant is QuantPair.AA):
            return False
        phi, atom = conclusion.left, conclusion.right
        want = Implies(phi, Or(_eq0(SetMeet(atom.right, p)),
                               Atom(QuantPair.AE, atom.left, p, atom.rel)))
        side = special not in free_set_vars(phi) | free_set_vars(atom.left) | free_set_vars(atom.right)
        return premise == want and side
    if name == "R3":
        if not (isinstance(conclusion, Implies) and isinstance(conclusion.right, Not)
                and isinstance(conclusion.right.arg, Atom)
                and conclusion.right.arg.quant is QuantPair.EA):
            return False
        phi, atom = conclusion.left, conclusion.right.arg
        want = Implies(phi, Or(_eq0(SetMeet(atom.left, p)),
                               Not(Atom(QuantPair.AA, p, atom.right, atom.rel))))
        side = special not in free_set_vars(phi) | free_set_vars(atom.left) | free_set_vars(atom.right)
        return premise == want and side
    if name == "RS":
        # conclusion: a=0 | EE(a,a)[alpha * (beta^ + -beta)]
        if not (isinstance(conclusion, Or) and isinstance(conclusion.right, Atom)
                and conclusion.right.quant is QuantPair.EE):
            return False
        atom = conclusion.right
        a = atom.left
        if atom.right != a or conclusion.left != _eq0(a):
            return False
        rel = atom.rel
        if not (isinstance(rel, RelMeet) and isinstance(rel.right, RelJoin)
                and isinstance(rel.right.left, RelConv)
                and isinstance(rel.right.right, RelCompl)
                and rel.right.left.arg == rel.right.right.arg):
            return False
        alpha = rel.left
        want = Or(_eq0(SetMeet(a, p)), Atom(QuantPair.EE, p, p, alpha))
        side = special not in free_set_vars(a)
        return premise == want and side
    raise ValueError(f"unknown rule {name!r}")


# ---------------------------------------------------------------------------
# Proofs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JAxiom:
    name: AxiomName


@dataclass(frozen=True)
class JTaut:
    pass


@dataclass(frozen=True)
class JPremise:
    pass


@dataclass(frozen=True)
class JMP:
    i: int
    j: int


@dataclass(frozen=True)
class JRule:
    rule: str  # R1 | R2 | R3 | RS
    source: int
    special: str


Justification = Union[JAxiom, JTaut, JPremise, JMP, JRule]


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification


class Mode(Enum):
    THEOREM = "theorem"
    FROM_PREMISES = "premises"


@dataclass(frozen=True)
class Proof:
    mode: Mode
    premises: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@dataclass(frozen=True)
class Verdict:
    ok: bool
    bad_line: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_proof(proof: Proof, taut_cap: int = 20) -> Verdict:
    by_index: dict[int, Formula] = {}
    prev = 0
    for line in proof.lines:
        if line.index <= prev:
            return Verdict(False, line.index, "line indices must strictly increase")
        prev = line.index
        j = line.justification
        if isinstance(j, JAxiom):
            if not match_axiom(j.name, line.formula):
                return Verdict(False, line.index,
                               f"not an instance of axiom {j.name.value}")
        elif isinstance(j, JTaut):
            try:
                ok = check_tautology(line.formula, cap=taut_cap)
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
        elif isinstance(j, JRule):
            if proof.mode is Mode.FROM_PREMISES:
                return Verdict(False, line.index,
                               "special rules are not allowed in premises mode")
            if j.source not in by_index:
                return Verdict(False, line.index, "rule cites a missing earlier line")
            if not check_rule(j.rule, by_index[j.source], line.formula, j.special):
                return Verdict(False, line.index,
                               f"rule {j.rule} shape or side condition fails")
        else:
            return Verdict(False, line.index, f"unknown justification {j!r}")
        by_index[line.index] = line.formula
    if not proof.lines:
        return Verdict(False, None, "empty proof")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Proof files
# ---------------------------------------------------------------------------

class ProofFileError(ValueError):
    pass


def _format_justification(j: Justification) -> str:
    if isinstance(j, JAxiom):
        return f"axiom {j.name.value}"
    if isinstance(j, JTaut):
        return "taut"
    if isinstance(j, JPremise):
        return "premise"
    if isinstance(j, JMP):
        return f"mp {j.i} {j.j}"
    if isinstance(j, JRule):
        return f"{j.rule} {j.source} {j.special}"
    raise TypeError(f"unknown justification {j!r}")


def proof_to_text(proof: Proof) -> str:
    out = [f"mode: {proof.mode.value}"]
    for prem in proof.premises:
        out.append(f"premise: {print_formula(prem)}")
    for line in proof.lines:
        out.append(f"{line.index}: {print_formula(line.formula)}"
                   f" ; {_format_justification(line.justification)}")
    return "\n".join(out) + "\n"


def _parse_justification(text: str) -> Justification:
    parts = text.split()
    if not parts:
        raise ProofFileError("missing justification")
    head = parts[0]
    if head == "axiom" and len(parts) == 2:
        try:
            return JAxiom(AxiomName(parts[1]))
        except ValueError:
            raise ProofFileError(f"unknown axiom name {parts[1]!r}") from None
    if head == "taut" and len(parts) == 1:
        return JTaut()
    if head == "premise" and len(parts) == 1:
        return JPremise()
    try:
        if head == "mp" and len(parts) == 3:
            return JMP(int(parts[1]), int(parts[2]))
        if head in ("R1", "R2", "R3", "RS") and len(parts) == 3:
            return JRule(head, int(parts[1]), parts[2])
    except ValueError:
        raise ProofFileError(f"bad line reference in {text!r}") from None
    raise ProofFileError(f"malformed justification {text!r}")


def proof_from_text(text: str) -> Proof:
    mode: Optional[Mode] = None
    premises: list[Formula] = []
    lines: list[ProofLine] = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("mode:"):
            value = stripped.split(":", 1)[1].strip()
            try:
                mode = Mode(value)
            except ValueError:
                raise ProofFileError(f"unknown mode {value!r}") from None
            continue
        if stripped.startswith("premise:"):
            premises.append(parse_formula(stripped.split(":", 1)[1]))
            continue
        head, _, just = stripped.rpartition(";")
        if ":" not in head:
            raise ProofFileError(f"malformed proof line {raw!r}")
        index_text, formula_text = head.split(":", 1)
        try:
            index = int(index_text.strip())
        except ValueError:
            raise ProofFileError(f"bad line index {index_text!r}") from None
        try:
            formula = parse_formula(formula_text)
        except ParseError as e:
            raise ProofFileError(f"line {index}: {e}") from e
        lines.append(ProofLine(index, formula, _parse_justification(just.strip())))
    if mode is None:
        raise ProofFileError("missing 'mode:' header")
    if premises and mode is Mode.THEOREM:
        raise ProofFileError("'premise:' lines are only allowed in 'mode: premises'")
    return Proof(mode=mode, premises=tuple(premises), lines=tuple(lines))
