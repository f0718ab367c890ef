"""Hilbert-style proof checking.

Axiom lines are checked by structural matching against the scheme table
(set metavariables match arbitrary set terms, relational metavariables
arbitrary relational terms, and the equality-scheme quantifier ranges
over all four quantifier pairs).  Propositional steps are justified by a
`taut` line: a validity over the formula's atomic subformulas, each atom
read as a letter, decided by a truth table held in ints.  Within one
`check_proof` call each line is walked once to its skeleton (the line
with its atoms so renamed), each distinct skeleton is decided once, and
later lines with that skeleton reuse the verdict; nothing is kept between
calls.  The four special rules R1-R3 and RS are schemes too, each a
(conclusion, premise) pair: a rule line matches the conclusion scheme, its
special variable must not occur in it, and the cited line must match the
premise scheme under the same bindings, with p bound to the special
variable.  `proof_from_text` parses each line alone but hands every line one
table of the file's atoms, keyed by token texts and used only where an atom
cannot reach MAX_DEPTH (see `syntax._Parser`); nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Union

from .syntax import (
    CHILD_FIELDS, VARIABLE_SORTS, And, Atom, Bottom, Formula, Iff, Implies, Leq,
    Not, Or, ParseError, PropVar, QuantPair, SetVar, Top, free_set_vars,
    parse_formula, print_formula,
)


# Each axiom's scheme texts by its name; AxiomName lists the names in this order.
_SCHEME_TEXT = {
    # Boolean algebra for set terms, via <=
    "BA_REFL": ("a <= a",),
    "BA_TRANS": ("a <= b & b <= c -> a <= c",),
    "BA_MEET_L": ("a*b <= a",),
    "BA_MEET_R": ("a*b <= b",),
    "BA_MEET_GLB": ("c <= a & c <= b -> c <= a*b",),
    "BA_JOIN_L": ("a <= a+b",),
    "BA_JOIN_R": ("b <= a+b",),
    "BA_JOIN_LUB": ("a <= c & b <= c -> a+b <= c",),
    "BA_BOT": ("0 <= a",),
    "BA_TOP": ("a <= 1",),
    "BA_DIST": ("a*(b+c) <= (a*b)+(a*c)",),
    "BA_COMPL_MEET": ("a*-a <= 0",),
    "BA_COMPL_JOIN": ("1 <= a+-a",),
    # equality congruence for quantified atoms, one text for each quantifier pair
    "AEQ1": tuple(f"{q.value}(a,b)[al] & a = c -> {q.value}(c,b)[al]"
                 for q in QuantPair),
    "AEQ2": tuple(f"{q.value}(a,b)[al] & b = c -> {q.value}(a,c)[al]"
                 for q in QuantPair),
    # existential atoms
    "A0": ("a = 0 | b = 0 -> !EE(a,b)[al]",),
    "AU1": ("EE(a+b,c)[al] <-> EE(a,c)[al] | EE(b,c)[al]",),
    "AU2": ("EE(a,b+c)[al] <-> EE(a,b)[al] | EE(a,c)[al]",),
    # linking axioms
    "AL1": ("AE(a,b)[al] -> a*c = 0 | EE(c,b)[al]",),
    "AL2": ("AA(a,b)[al] -> b*c = 0 | AE(a,c)[al]",),
    "AL3": ("!EA(a,b)[al] -> a*c = 0 | !AA(c,b)[al]",),
    # relational constants
    "A0R": ("!EE(a,b)[0]",),
    "A1R": ("AA(a,b)[1]",),
    # relational operations
    "ACAP": ("AA(a,b)[al*be] <-> AA(a,b)[al] & AA(a,b)[be]",),
    "ACUP": ("EE(a,b)[al+be] <-> EE(a,b)[al] | EE(a,b)[be]",),
    "ANEG": ("AA(a,b)[-al] <-> !EE(a,b)[al]",),
    "ACONV": ("EE(a,b)[al^] <-> EE(b,a)[al]",),
}

AxiomName = Enum("AxiomName", [(n, n) for n in _SCHEME_TEXT])


@lru_cache(maxsize=None)
def _schemes(name: AxiomName) -> tuple[Formula, ...]:
    return tuple(map(parse_formula, _SCHEME_TEXT[name.value]))


def _match(scheme, f, binds: dict) -> bool:
    """Match f against a scheme; every variable in the scheme is a
    metavariable, bound in binds to the part of f of its sort that it meets.
    One met again must meet an equal part: a term's is compared by `==`, and
    a formula's by `_same`, from a stack, as it may be too deep for `==`."""
    cls = type(scheme)
    if cls in VARIABLE_SORTS:
        if not isinstance(f, VARIABLE_SORTS[cls]):
            return False
        seen = binds.setdefault(scheme, f)
        return seen is f or (_same(seen, f) if cls is PropVar else seen == f)
    if cls is not type(f):
        return False
    if cls is Atom and scheme.quant is not f.quant:
        return False
    for name in CHILD_FIELDS[cls]:
        if not _match(getattr(scheme, name), getattr(f, name), binds):
            return False
    return True  # same-type leaf constants are equal


def match_axiom(name: AxiomName, f: Formula) -> bool:
    return any(_match(s, f, {}) for s in _schemes(name))


# ---------------------------------------------------------------------------
# Tautology checking
# ---------------------------------------------------------------------------

class TautologyCapExceeded(ValueError):
    pass


_TAUT_CAP = 20  # the most distinct atoms a `taut` line may have
_TABLE_LETTERS = 16  # a truth table holds at most 2**16 assignments
_CONNECTIVES = (Not, And, Or, Implies, Iff, Top, Bottom)  # a skeleton's other nodes


def check_tautology(f: Union[Formula, tuple]) -> bool:
    """True iff f holds under every Boolean assignment to its atoms.

    f is a source formula or its skeleton (see `_skeleton`).
    Atoms (Leq and quantified atoms) are opaque propositional letters.  A
    truth table is an int whose bit a is the value under assignment a, which
    sets letter k iff its bit k is set.  Past 16 letters the assignments are
    taken 2**16 at a time, letters 16.. constant in each block.
    """
    skeleton = f if type(f) is tuple else _skeleton(f)
    m = 1 + max((t for t in skeleton if type(t) is int), default=-1)
    width = min(m, _TABLE_LETTERS)
    low, n = [], 1  # the tables of letters 0..k-1 over n = 2**k assignments
    for _ in range(width):
        low, n = [t | t << n for t in low] + [((1 << n) - 1) << n], 2 * n
    full = (1 << n) - 1
    for block in range(1 << (m - width)):
        tables = low + [full if block >> j & 1 else 0 for j in range(m - width)]
        stack: list[int] = []
        # Read backwards, a preorder lists each connective after its
        # subformulas, whose tables lie on top of the stack, leftmost last.
        for token in reversed(skeleton):
            if type(token) is int:
                stack.append(tables[token])
            elif token is Not:
                stack.append(full ^ stack.pop())
            elif token is Top or token is Bottom:
                stack.append(full if token is Top else 0)
            else:
                l, r = stack.pop(), stack.pop()
                stack.append(l & r if token is And else l | r if token is Or
                             else (full ^ l) | r if token is Implies else full ^ l ^ r)
        if stack[0] != full:
            return False
    return True


def _skeleton(f: Formula) -> tuple:
    """f in preorder as a flat tuple: each connective's class, and for each
    atom the number of its letter, k for the k-th distinct atom.

    Two formulas have equal skeletons iff they are equal with each atom read
    as its letter, and a flat tuple hashes without recursion, however deep f is.
    """
    letters: dict[Formula, int] = {}
    out: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        cls = type(g)
        if cls is Leq or cls is Atom:
            out.append(letters.setdefault(g, len(letters)))
        elif cls in _CONNECTIVES:
            out.append(cls)
            for name in reversed(CHILD_FIELDS[cls]):
                stack.append(getattr(g, name))
        else:
            raise TypeError(f"not a source formula: {g!r}")
    if len(letters) > _TAUT_CAP:
        raise TautologyCapExceeded(
            f"formula has {len(letters)} distinct atoms (cap {_TAUT_CAP})")
    return tuple(out)


def _same(f: Formula, g: Formula) -> bool:
    """f == g.  `==` takes three Python frames a level, which the connectives
    of a parsed formula may exceed, so they are walked from a stack; an
    atom's terms nest at most MAX_DEPTH / _TERM_LEVEL deep, which `==` takes.
    """
    stack = [(f, g)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        names = CHILD_FIELDS[cls]
        if cls is Leq or cls is Atom or not names:
            if x != y:
                return False
        else:
            for name in names:
                stack.append((getattr(x, name), getattr(y, name)))
    return True


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

# Each special rule as its (conclusion, premise) schemes, p standing for the
# special variable.  R1-R3 carry a side formula phi, the formula
# metavariable, which the parser cannot read and no proof line holds.
_PHI = PropVar("phi")
_RULES = {name: tuple(Implies(_PHI, parse_formula(text)) for text in pair)
          for name, pair in (("R1", ("AE(a,b)[al]", "a*p = 0 | EE(p,b)[al]")),
                             ("R2", ("AA(a,b)[al]", "b*p = 0 | AE(a,p)[al]")),
                             ("R3", ("!EA(a,b)[al]", "a*p = 0 | !AA(p,b)[al]")))}
_RULES["RS"] = (parse_formula("a = 0 | EE(a,a)[al * (be^ + -be)]"),
                parse_formula("a*p = 0 | EE(p,p)[al]"))


def check_rule(name: str, premise: Formula, conclusion: Formula, special: str) -> bool:
    """Does `conclusion` follow from `premise` by the named special rule, with
    `special` for p?  See the module docstring."""
    if name not in _RULES:
        raise ValueError(f"unknown rule {name!r}")
    conclusion_scheme, premise_scheme = _RULES[name]
    binds: dict = {SetVar("p"): SetVar(special)}
    return (_match(conclusion_scheme, conclusion, binds)
            and special not in free_set_vars(conclusion)
            and _match(premise_scheme, premise, binds))


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
    rule: str  # a key of _RULES
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


def check_proof(proof: Proof) -> Verdict:
    by_index: dict[int, Formula] = {}
    # `taut` verdicts of this call by skeleton: lines that differ only in
    # their atoms share one truth table.
    taut_verdicts: dict[tuple, bool] = {}
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
                skeleton = _skeleton(line.formula)
            except TautologyCapExceeded as e:
                return Verdict(False, line.index, str(e))
            ok = taut_verdicts.get(skeleton)
            if ok is None:
                ok = taut_verdicts[skeleton] = check_tautology(skeleton)
            if not ok:
                return Verdict(False, line.index, "not a tautology")
        elif isinstance(j, JPremise):
            if proof.mode is not Mode.FROM_PREMISES:
                return Verdict(False, line.index, "premise line outside premises mode")
            if not any(_same(line.formula, p) for p in proof.premises):
                return Verdict(False, line.index, "formula is not among the premises")
        elif isinstance(j, JMP):
            if j.i not in by_index or j.j not in by_index:
                return Verdict(False, line.index, "mp cites a missing earlier line")
            major = by_index[j.j]
            if not isinstance(major, Implies):
                return Verdict(False, line.index, "mp major premise is not an implication")
            if not (_same(major.left, by_index[j.i]) and _same(major.right, line.formula)):
                return Verdict(False, line.index, "mp shape mismatch")
        elif isinstance(j, JRule):
            if j.rule not in _RULES:
                return Verdict(False, line.index, f"unknown rule {j.rule!r}")
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
        if head in _RULES and len(parts) == 3:
            return JRule(head, int(parts[1]), parts[2])
    except ValueError:
        raise ProofFileError(f"bad line reference in {text!r}") from None
    raise ProofFileError(f"malformed justification {text!r}")


def _parse_at(text: str, line: int, offset: int, atoms: dict) -> Formula:
    """The formula text, which follows column `offset` of file line `line`, read
    with the file's atoms; a ParseError gives its position in the file."""
    try:
        return parse_formula(text, atoms)
    except ParseError as e:  # text is one line, so e.line is 1
        raise ParseError(e.message, line, offset + e.col, e.expected) from None


def proof_from_text(text: str) -> Proof:
    mode: Optional[Mode] = None
    premises: list[Formula] = []
    lines: list[ProofLine] = []
    atoms: dict = {}  # the file's table of atoms
    # only "\n" ends a line, as for the parser: str.splitlines would also
    # break a comment at a form feed
    for number, raw in enumerate(text.split("\n"), 1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if not stripped:
            continue
        lead = len(code) - len(code.lstrip())  # stripped[k] is at column lead + k + 1
        if stripped.startswith("mode:"):
            value = stripped.split(":", 1)[1].strip()
            try:
                mode = Mode(value)
            except ValueError:
                raise ProofFileError(f"unknown mode {value!r}") from None
            continue
        if stripped.startswith("premise:"):
            start = len("premise:")
            premises.append(_parse_at(stripped[start:], number, lead + start, atoms))
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
            formula = _parse_at(formula_text, number, lead + len(index_text) + 1, atoms)
        except ParseError as e:
            raise ProofFileError(f"line {index}: {e}") from e
        lines.append(ProofLine(index, formula, _parse_justification(just.strip())))
    if mode is None:
        raise ProofFileError("missing 'mode:' header")
    if premises and mode is Mode.THEOREM:
        raise ProofFileError("'premise:' lines are only allowed in 'mode: premises'")
    return Proof(mode=mode, premises=tuple(premises), lines=tuple(lines))
