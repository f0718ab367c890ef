"""Abstract syntax, parser, printer and controlled-English front end.

The language has two disjoint term namespaces: set terms (Boolean algebra
over set variables, 0 and 1) and relational terms (additionally closed
under converse `^`).  Atomic formulas are inclusions `a <= b` and
quantified atoms `EE/AE/AA/EA(a,b)[alpha]`.  `a = b` is sugar for
`(a <= b) & (b <= a)` and is expanded at parse time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetTerm:
    pass


@dataclass(frozen=True)
class SetVar(SetTerm):
    name: str


@dataclass(frozen=True)
class SetZero(SetTerm):
    pass


@dataclass(frozen=True)
class SetOne(SetTerm):
    pass


@dataclass(frozen=True)
class SetCompl(SetTerm):
    arg: SetTerm


@dataclass(frozen=True)
class SetMeet(SetTerm):
    left: SetTerm
    right: SetTerm


@dataclass(frozen=True)
class SetJoin(SetTerm):
    left: SetTerm
    right: SetTerm


@dataclass(frozen=True)
class RelTerm:
    pass


@dataclass(frozen=True)
class RelVar(RelTerm):
    name: str


@dataclass(frozen=True)
class RelZero(RelTerm):
    pass


@dataclass(frozen=True)
class RelOne(RelTerm):
    pass


@dataclass(frozen=True)
class RelCompl(RelTerm):
    arg: RelTerm


@dataclass(frozen=True)
class RelMeet(RelTerm):
    left: RelTerm
    right: RelTerm


@dataclass(frozen=True)
class RelJoin(RelTerm):
    left: RelTerm
    right: RelTerm


@dataclass(frozen=True)
class RelConv(RelTerm):
    arg: RelTerm


class QuantPair(Enum):
    """The four quantifier pairs of the quantified atoms."""

    EE = "EE"
    AE = "AE"
    AA = "AA"
    EA = "EA"

    @property
    def dual(self) -> "QuantPair":
        """Swap each quantifier coordinate (EE<->AA, AE<->EA)."""
        return _DUAL[self]


_DUAL = {
    QuantPair.EE: QuantPair.AA,
    QuantPair.AA: QuantPair.EE,
    QuantPair.AE: QuantPair.EA,
    QuantPair.EA: QuantPair.AE,
}


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Leq(Formula):
    left: SetTerm
    right: SetTerm


@dataclass(frozen=True)
class Atom(Formula):
    quant: QuantPair
    left: SetTerm
    right: SetTerm
    rel: RelTerm


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


TOP = Top()
BOTTOM = Bottom()
SZERO = SetZero()
SONE = SetOne()
RZERO = RelZero()
RONE = RelOne()


def equals(a: SetTerm, b: SetTerm) -> Formula:
    """The expansion of the `a = b` sugar."""
    return And(Leq(a, b), Leq(b, a))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

# The fields of each node type that hold subterms or subformulas, left to
# right.  Every generic walker reads this table, so a new node type needs
# one entry here rather than a case in each walker.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    SetVar: (), SetZero: (), SetOne: (), SetCompl: ("arg",),
    SetMeet: ("left", "right"), SetJoin: ("left", "right"),
    RelVar: (), RelZero: (), RelOne: (), RelCompl: ("arg",), RelConv: ("arg",),
    RelMeet: ("left", "right"), RelJoin: ("left", "right"),
    Leq: ("left", "right"), Atom: ("left", "right", "rel"), Not: ("arg",),
    And: ("left", "right"), Or: ("left", "right"),
    Implies: ("left", "right"), Iff: ("left", "right"),
    Top: (), Bottom: (),
}

# Strong Kleene (Kleene 1952) binary connectives on True/False/None, as
# (negate the left operand, dominant value): an operand equal to the
# dominant value decides the result alone, two non-dominant operands give
# the other value, and anything else is unknown.  Implies is Or with its
# left operand negated; meet and join of terms are And and Or pointwise.
KLEENE: dict[type, tuple[bool, bool]] = {
    And: (False, False), Or: (False, True), Implies: (True, True),
    SetMeet: (False, False), SetJoin: (False, True),
    RelMeet: (False, False), RelJoin: (False, True),
}


def children(x) -> tuple:
    """The immediate subterms and subformulas of a node, left to right."""
    return tuple(getattr(x, name) for name in CHILD_FIELDS[type(x)])


_PUSH_ORDER = {cls: names[::-1] for cls, names in CHILD_FIELDS.items()}


def nodes(x) -> Iterator:
    """Every node of a term or formula in preorder, terms included."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        for name in _PUSH_ORDER[type(node)]:
            stack.append(getattr(node, name))


def transform(x, fn):
    """Rebuild x bottom-up, replacing each node by fn of it after its children.

    Non-child fields (names, the quantifier pair) are kept as they are.
    """
    names = CHILD_FIELDS[type(x)]
    if names:
        x = type(x)(*[transform(getattr(x, f), fn) if f in names else getattr(x, f)
                      for f in x.__dataclass_fields__])
    return fn(x)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        loc = f"line {line}, column {col}"
        if expected:
            message = f"{message} at {loc} (expected one of: {', '.join(sorted(expected))})"
        else:
            message = f"{message} at {loc}"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<ident>[a-z][A-Za-z0-9_]*)
    | (?P<quant>EE|AE|AA|EA)
    | (?P<sym><->|->|<=|!=|=|\^|\*|\+|-|!|&|\||\(|\)|\[|\]|,|0|1)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'quant', 'true', 'false', 'eof', or the symbol itself
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        if m.lastgroup == "ws":
            nl = m.group().count("\n")
            if nl:
                line += nl
                line_start = pos + m.group().rindex("\n") + 1
        elif m.lastgroup == "comment":
            pass
        elif m.lastgroup == "ident":
            word = m.group()
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
        elif m.lastgroup == "quant":
            tokens.append(Token("quant", m.group(), line, col))
        else:
            tokens.append(Token(m.group(), m.group(), line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"unexpected token {t.text or '<end of input>'!r}",
                t.line, t.col, expected={kind},
            )
        return self.next()

    # formulas ------------------------------------------------------------

    def formula(self) -> Formula:
        f = self.imp()
        while self.accept("<->"):
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.accept("->"):
            return Implies(f, self.imp())  # right-associative
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.accept("|"):
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.accept("&"):
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return Not(self.unary())
        if t.kind == "true":
            self.next()
            return TOP
        if t.kind == "false":
            self.next()
            return BOTTOM
        if t.kind == "quant":
            return self.quant_atom()
        if t.kind == "(":
            # Could be a parenthesized formula or a parenthesized set term
            # starting a `<=`/`=`/`!=` atom; try the set-atom reading first.
            saved = self.pos
            try:
                return self.rel_atom()
            except ParseError:
                self.pos = saved
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.rel_atom()

    def quant_atom(self) -> Formula:
        q = QuantPair(self.expect("quant").text)
        self.expect("(")
        a = self.set_term()
        self.expect(",")
        b = self.set_term()
        self.expect(")")
        self.expect("[")
        r = self.rel_term()
        self.expect("]")
        return Atom(q, a, b, r)

    def rel_atom(self) -> Formula:
        a = self.set_term()
        t = self.peek()
        if t.kind == "<=":
            self.next()
            return Leq(a, self.set_term())
        if t.kind == "=":
            self.next()
            return equals(a, self.set_term())
        if t.kind == "!=":
            self.next()
            return Not(equals(a, self.set_term()))
        raise ParseError(
            f"unexpected token {t.text or '<end of input>'!r}",
            t.line, t.col, expected={"<=", "=", "!="},
        )

    # set terms -----------------------------------------------------------

    def set_term(self) -> SetTerm:
        t = self.smeet()
        while self.accept("+"):
            t = SetJoin(t, self.smeet())
        return t

    def smeet(self) -> SetTerm:
        t = self.sunary()
        while self.accept("*"):
            t = SetMeet(t, self.sunary())
        return t

    def sunary(self) -> SetTerm:
        t = self.peek()
        if t.kind == "-":
            self.next()
            return SetCompl(self.sunary())
        if t.kind == "ident":
            self.next()
            return SetVar(t.text)
        if t.kind == "0":
            self.next()
            return SZERO
        if t.kind == "1":
            self.next()
            return SONE
        if t.kind == "(":
            self.next()
            inner = self.set_term()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected token {t.text or '<end of input>'!r}",
            t.line, t.col, expected={"ident", "0", "1", "-", "("},
        )

    # relational terms ----------------------------------------------------

    def rel_term(self) -> RelTerm:
        t = self.rmeet()
        while self.accept("+"):
            t = RelJoin(t, self.rmeet())
        return t

    def rmeet(self) -> RelTerm:
        t = self.runary()
        while self.accept("*"):
            t = RelMeet(t, self.runary())
        return t

    def runary(self) -> RelTerm:
        t = self.peek()
        if t.kind == "-":
            self.next()
            return RelCompl(self.runary())
        return self.rpostfix()

    def rpostfix(self) -> RelTerm:
        t = self.ratom()
        while self.accept("^"):
            t = RelConv(t)
        return t

    def ratom(self) -> RelTerm:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return RelVar(t.text)
        if t.kind == "0":
            self.next()
            return RZERO
        if t.kind == "1":
            self.next()
            return RONE
        if t.kind == "(":
            self.next()
            inner = self.rel_term()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected token {t.text or '<end of input>'!r}",
            t.line, t.col, expected={"ident", "0", "1", "-", "("},
        )


def parse_formula(text: str) -> Formula:
    p = _Parser(tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col, expected={"<end of input>"})
    return f


def parse_set_term(text: str) -> SetTerm:
    p = _Parser(tokenize(text))
    t = p.set_term()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t


def parse_rel_term(text: str) -> RelTerm:
    p = _Parser(tokenize(text))
    t = p.rel_term()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t


# ---------------------------------------------------------------------------
# Printer (minimal parenthesization; output re-parses to an equal AST)
# ---------------------------------------------------------------------------

# precedence levels: higher binds tighter
_S_JOIN, _S_MEET, _S_UNARY = 1, 2, 3


def print_set_term(t: SetTerm, prec: int = 0) -> str:
    if isinstance(t, SetVar):
        return t.name
    if isinstance(t, SetZero):
        return "0"
    if isinstance(t, SetOne):
        return "1"
    if isinstance(t, SetCompl):
        return "-" + print_set_term(t.arg, _S_UNARY)
    if isinstance(t, SetMeet):
        s = print_set_term(t.left, _S_MEET) + "*" + print_set_term(t.right, _S_MEET + 1)
        return f"({s})" if prec > _S_MEET else s
    if isinstance(t, SetJoin):
        s = print_set_term(t.left, _S_JOIN) + "+" + print_set_term(t.right, _S_JOIN + 1)
        return f"({s})" if prec > _S_JOIN else s
    raise TypeError(f"not a set term: {t!r}")


_R_JOIN, _R_MEET, _R_COMPL, _R_POST = 1, 2, 3, 4


def print_rel_term(t: RelTerm, prec: int = 0) -> str:
    if isinstance(t, RelVar):
        return t.name
    if isinstance(t, RelZero):
        return "0"
    if isinstance(t, RelOne):
        return "1"
    if isinstance(t, RelCompl):
        s = "-" + print_rel_term(t.arg, _R_COMPL)
        # complement under postfix ^ needs parens: (-r)^ vs -r^
        return f"({s})" if prec > _R_COMPL else s
    if isinstance(t, RelConv):
        # postfix ^ binds tightest; complement under converse needs parens
        return print_rel_term(t.arg, _R_POST) + "^"
    if isinstance(t, RelMeet):
        s = print_rel_term(t.left, _R_MEET) + "*" + print_rel_term(t.right, _R_MEET + 1)
        return f"({s})" if prec > _R_MEET else s
    if isinstance(t, RelJoin):
        s = print_rel_term(t.left, _R_JOIN) + "+" + print_rel_term(t.right, _R_JOIN + 1)
        return f"({s})" if prec > _R_JOIN else s
    raise TypeError(f"not a relational term: {t!r}")


_F_IFF, _F_IMP, _F_OR, _F_AND, _F_NOT = 1, 2, 3, 4, 5


def _as_equality(f: Formula):
    """Recognize the expansion of `a = b`, returning (a, b) or None."""
    if (
        isinstance(f, And)
        and isinstance(f.left, Leq)
        and isinstance(f.right, Leq)
        and f.left.left == f.right.right
        and f.left.right == f.right.left
    ):
        return f.left.left, f.left.right
    return None


def print_formula(f: Formula, prec: int = 0) -> str:
    eq = _as_equality(f)
    if eq is not None:
        return f"{print_set_term(eq[0])} = {print_set_term(eq[1])}"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Leq):
        return f"{print_set_term(f.left)} <= {print_set_term(f.right)}"
    if isinstance(f, Atom):
        return (
            f"{f.quant.value}({print_set_term(f.left)},{print_set_term(f.right)})"
            f"[{print_rel_term(f.rel)}]"
        )
    if isinstance(f, Not):
        inner = _as_equality(f.arg)
        if inner is not None:
            return f"{print_set_term(inner[0])} != {print_set_term(inner[1])}"
        if isinstance(f.arg, Leq):
            return f"!({print_formula(f.arg)})"
        return "!" + _print_sub(f.arg, _F_NOT)
    if isinstance(f, And):
        s = _print_sub(f.left, _F_AND) + " & " + _print_sub(f.right, _F_AND + 1)
        return f"({s})" if prec > _F_AND else s
    if isinstance(f, Or):
        s = _print_sub(f.left, _F_OR) + " | " + _print_sub(f.right, _F_OR + 1)
        return f"({s})" if prec > _F_OR else s
    if isinstance(f, Implies):
        # right-associative
        s = _print_sub(f.left, _F_IMP + 1) + " -> " + _print_sub(f.right, _F_IMP)
        return f"({s})" if prec > _F_IMP else s
    if isinstance(f, Iff):
        s = _print_sub(f.left, _F_IFF) + " <-> " + _print_sub(f.right, _F_IFF + 1)
        return f"({s})" if prec > _F_IFF else s
    raise TypeError(f"not a formula: {f!r}")


def _print_sub(f: Formula, prec: int) -> str:
    # Equality sugar and atoms never need parens: they sit at atom level.
    if _as_equality(f) is not None:
        s = print_formula(f)
        return s
    return print_formula(f, prec)


# ---------------------------------------------------------------------------
# Variable accounting and substitution
# ---------------------------------------------------------------------------

def free_set_vars(x) -> frozenset[str]:
    """Set variables occurring in a formula or term (relational terms have none)."""
    return frozenset({n.name for n in nodes(x) if isinstance(n, SetVar)})


def free_rel_vars(x) -> frozenset[str]:
    """Relational variables occurring in a formula or relational term."""
    return frozenset({n.name for n in nodes(x) if isinstance(n, RelVar)})


def substitute_set_var(f, name: str, term: SetTerm):
    """Replace every occurrence of SetVar(name) by term (no binders, no capture)."""
    return transform(f, lambda n: term if isinstance(n, SetVar) and n.name == name else n)


def atoms_of(f: Formula) -> list[Formula]:
    """Atomic subformulas (Leq and quantified atoms), left to right, deduplicated."""
    return list(dict.fromkeys(g for g in nodes(f) if isinstance(g, (Leq, Atom))))


# ---------------------------------------------------------------------------
# Controlled English
# ---------------------------------------------------------------------------

class EnglishError(ValueError):
    pass


@dataclass(frozen=True)
class Lexicon:
    """Maps English nouns to set variables and transitive verbs to relational variables."""

    nouns: Mapping[str, str]
    verbs: Mapping[str, str]

    def __post_init__(self):
        for label, mapping in (("nouns", self.nouns), ("verbs", self.verbs)):
            values = list(mapping.values())
            if len(values) != len(set(values)):
                raise EnglishError(f"lexicon {label} map is not injective")

    @classmethod
    def from_json(cls, text: str) -> "Lexicon":
        data = json.loads(text)
        if not isinstance(data, dict) or not {"nouns", "verbs"} <= data.keys():
            raise EnglishError("lexicon JSON must be an object with 'nouns' "
                               "and 'verbs' fields")
        try:
            nouns, verbs = dict(data["nouns"]), dict(data["verbs"])
        except (TypeError, ValueError) as e:
            raise EnglishError(f"malformed lexicon: {e}") from e
        if not all(isinstance(v, str) for v in [*nouns.values(), *verbs.values()]):
            raise EnglishError("malformed lexicon: variable names must be strings")
        return cls(nouns=nouns, verbs=verbs)


def english_to_formula(sentence: str, reading: str, lex: Lexicon) -> Formula:
    """Translate `(Every|Some|No) NOUN VERB (every|some) NOUN` into a formula.

    `reading` picks the quantifier scope: "sws" (subject wide scope) or
    "ows" (object wide scope, expressed with the converse of the verb).
    "No ..." is the negation of the corresponding "Some ..." sentence.
    """
    if reading not in ("sws", "ows"):
        raise EnglishError(f"unknown reading {reading!r} (want 'sws' or 'ows')")
    words = sentence.replace(".", " ").split()
    if len(words) != 5:
        raise EnglishError(
            f"unsupported sentence shape: want 'Det NOUN VERB det NOUN', got {sentence!r}")
    det1, noun1, verb, det2, noun2 = words
    det1 = det1.lower()
    det2 = det2.lower()
    if det1 not in ("every", "some", "no"):
        raise EnglishError(f"unknown determiner {words[0]!r}")
    if det2 not in ("every", "some"):
        raise EnglishError(f"unknown determiner {words[3]!r}")
    if det1 == "no":
        return Not(english_to_formula(" ".join(["Some", noun1, verb, det2, noun2]),
                                      reading, lex))
    for noun in (noun1, noun2):
        if noun not in lex.nouns:
            raise EnglishError(f"unknown noun {noun!r}")
    if verb not in lex.verbs:
        raise EnglishError(f"unknown verb {verb!r}")
    a = SetVar(lex.nouns[noun1])
    b = SetVar(lex.nouns[noun2])
    r = RelVar(lex.verbs[verb])
    if det1 == "some" and det2 == "some":
        return Atom(QuantPair.EE, a, b, r)
    if det1 == "every" and det2 == "every":
        return Atom(QuantPair.AA, a, b, r)
    if det1 == "every" and det2 == "some":
        if reading == "sws":
            return Atom(QuantPair.AE, a, b, r)
        return Atom(QuantPair.EA, b, a, RelConv(r))
    # some ... every
    if reading == "sws":
        return Atom(QuantPair.EA, a, b, r)
    return Atom(QuantPair.AE, b, a, RelConv(r))
