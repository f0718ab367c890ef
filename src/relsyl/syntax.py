"""Abstract syntax, parser, printer and controlled-English front end.

The language has two disjoint term namespaces: set terms (Boolean algebra
over set variables, 0 and 1) and relational terms (additionally closed
under converse `^`).  Atomic formulas are inclusions `a <= b` and
quantified atoms `EE/AE/AA/EA(a,b)[alpha]`.  `a = b` is sugar for
`(a <= b) & (b <= a)` and is expanded at parse time.

The modal formulas of `bml.translate` are formulas too: the connectives
over letters (`PropVar`), `<R>f` (`Diamond`) and `[R]f` (`Box`), R a
relational term.  The printer prints them; the parser does not read them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from typing import Iterator, Mapping, NamedTuple


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


@dataclass(frozen=True)
class PropVar(Formula):
    name: str  # true where the set variable of this name is; in a scheme, any formula


@dataclass(frozen=True)
class Diamond(Formula):
    param: RelTerm
    arg: Formula


@dataclass(frozen=True)
class Box(Formula):
    param: RelTerm
    arg: Formula


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
# right: those declared as a term or a formula (under `from __future__ import
# annotations` a field's type is the text of its annotation).  Every generic
# walker reads this table, so a new node type needs no case in any walker.
_NODE_BASES = {base.__name__: base for base in (SetTerm, RelTerm, Formula)}
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.type in _NODE_BASES)
    for base in _NODE_BASES.values() for cls in base.__subclasses__()}

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
# Scanner
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


_IDENT = r"[a-z][A-Za-z0-9_]*"

# One match per token, blanks before it included: a newline, a comment, an
# identifier, a quantifier pair, a symbol, or else a character the language
# lacks, taken with the rest of the input, so that only the last match can be
# one.  Scans stop before trailing blanks, so every match has a token in it.
_SCAN = re.compile(rf"""[ \t\r]*(\n|\#[^\n]*|{_IDENT}|{"|".join(q.value for q in QuantPair)}
                        |<->|->|<=|!=|[=^*+\-!&|()\[\],01]|(?s:.+))""", re.VERBOSE)

# The kind of every token text but identifiers: each symbol and keyword is
# its own kind, and the quantifier pairs are "quant".
_KINDS = {s: s for s in ("<->", "->", "<=", "!=", "=", "^", "*", "+", "-", "!",
                         "&", "|", "(", ")", "[", "]", ",", "0", "1", "true", "false")}
_KINDS.update(dict.fromkeys((q.value for q in QuantPair), "quant"))


def _positions(text: str) -> list[tuple[int, int]]:
    """Line and column of every token of text, then of its end."""
    end = len(text.rstrip(" \t\r"))
    offsets = [m.start(1) for m in _SCAN.finditer(text, 0, end) if m[1][0] not in "\n#"]
    positions = []
    line, start, last = 1, 0, 0  # the line of offset last, and where it starts
    for k in offsets + [len(text)]:
        newlines = text.count("\n", last, k)
        if newlines:
            line += newlines
            start = text.rfind("\n", last, k) + 1
        positions.append((line, k - start + 1))
        last = k
    return positions


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The texts and kinds of the tokens of text, ending with ("", "eof")."""
    texts = _SCAN.findall(text, 0, len(text.rstrip(" \t\r")))
    if "\n" in text or "#" in text:
        texts = [t for t in texts if t[0] not in "\n#"]
    kinds = list(map(_KINDS.get, texts, repeat("ident")))
    if texts and kinds[-1] == "ident" and not "a" <= texts[-1][0] <= "z":  # not a name
        raise ParseError(f"unexpected character {texts[-1][0]!r}",
                         *_positions(text)[-2])
    texts.append("")
    kinds.append("eof")
    return texts, kinds


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'quant', 'true', 'false', 'eof', or the symbol itself
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    texts, kinds = _scan(text)
    return [Token(kind, word, *position)
            for kind, word, position in zip(kinds, texts, _positions(text))]


# ---------------------------------------------------------------------------
# Parser (precedence climbing)
# ---------------------------------------------------------------------------

# The infix classes: symbol, level (higher binds tighter; terms and formulas
# count separately, since an atom's terms print at level 0), and whether the
# operator associates to the right.  The parser and both printers read it.
_INFIX: dict[type, tuple[str, int, bool]] = {
    SetJoin: ("+", 1, False), RelJoin: ("+", 1, False),
    SetMeet: ("*", 2, False), RelMeet: ("*", 2, False),
    Iff: (" <-> ", 1, False), Implies: (" -> ", 2, True),
    Or: (" | ", 3, False), And: (" & ", 4, False),
}

# The nesting limit.  Every walker of a parsed tree recurses on it.  From a
# shallow stack, under the default recursion limit of 1,000, the printer, the
# evaluators, the search, `minimize` and `translate` take one Python frame a
# formula level and gave out at about 990 levels.  Terms cost more: `==`
# takes three frames a term level and gave out at 331 (the printer compares
# terms to find `a = b`), and `hash` two, at 497 (`minimize` hashes atoms).
# So a node's depth counts each formula node above it once and each term
# node above it _TERM_LEVEL times, and no node of a parsed tree lies deeper
# than MAX_DEPTH.  The parser's own recursion is bounded by the same count,
# in which a parenthesis, which builds no node but costs the parser two
# frames (`binary`, then `unary` or `prefix`), counts twice.  700 leaves about
# 300 frames for the caller's stack, and admits the 600 `!` of a deep `taut`
# line and 300 parentheses around an atom.
MAX_DEPTH = 700
_TERM_LEVEL = 3
_TOO_DEEP = "input nested too deeply"


def _ops(*classes) -> dict[str, tuple[type, int, bool]]:
    """Each class's token kind, mapped to the class, its level and associativity."""
    return {_INFIX[cls][0].strip(): (cls, *_INFIX[cls][1:]) for cls in classes}


_FORMULA_OPS = _ops(Iff, Implies, Or, And)


class _Sort(NamedTuple):
    """The constructors of one term sort; only relational terms have converse."""

    var: type
    zero: object
    one: object
    compl: type
    conv: type | None
    ops: dict[str, tuple[type, int, bool]]  # the meet and the join


_SET = _Sort(SetVar, SZERO, SONE, SetCompl, None, _ops(SetMeet, SetJoin))
_REL = _Sort(RelVar, RZERO, RONE, RelCompl, RelConv, _ops(RelMeet, RelJoin))

_SET_TERM_KINDS = frozenset(("ident", "0", "1", "-", "*", "+"))


def _set_term_groups(kinds: list[str]) -> set[int]:
    """The indices of the `(` whose group, up to its `)`, holds only set-term tokens.

    Only such a `(` can open the set term of a `<=`/`=`/`!=` atom.
    """
    groups = set()
    stack = []  # indices of the open `(`
    mixed = 0   # the open groups below this depth hold another token
    for i, kind in enumerate(kinds):
        if kind in _SET_TERM_KINDS:
            continue
        if kind == "(":
            stack.append(i)
        elif kind == ")":
            if stack:
                j = stack.pop()
                if len(stack) >= mixed:
                    groups.add(j)
                else:
                    mixed = len(stack)
        else:
            mixed = len(stack)
    return groups


def _too_deep(x) -> bool:
    """Whether a node of x lies deeper than MAX_DEPTH, found without recursion."""
    stack = [(x, 0)]
    while stack:
        node, depth = stack.pop()
        names = CHILD_FIELDS[type(node)]
        if names:
            depth += _TERM_LEVEL if isinstance(node, (SetTerm, RelTerm)) else 1
            if depth > MAX_DEPTH:
                return True
            stack.extend((getattr(node, name), depth) for name in names)
    return False


class _Parser:
    """Each rule takes the depth of the node it parses (see MAX_DEPTH)."""

    def __init__(self, text: str):
        self.text = text
        self.texts, self.kinds = _scan(text)
        self.pos = 0
        self.set_term_groups = None  # computed at the first `(` of a formula

    def error(self, message: str, i: int, expected=()) -> ParseError:
        return ParseError(message, *_positions(self.text)[i], expected)

    def unexpected(self, i: int, expected) -> ParseError:
        return self.error(f"unexpected token {self.texts[i] or '<end of input>'!r}",
                          i, expected)

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            raise self.unexpected(self.pos, {kind})
        self.pos += 1

    def binary(self, sort: _Sort | None, level: int = 1,
               depth: int = 0) -> Formula | SetTerm | RelTerm:
        """A formula (sort None) or a term of sort, whose infix operators bind
        at level or tighter.

        Precedence climbing: an operator chains its left operand in the loop,
        and parses its right operand one level tighter, or at its own level
        if it associates to the right.
        """
        if sort is None:
            x, ops, step = self.unary(depth), _FORMULA_OPS, 1
        else:
            x, ops, step = self.prefix(sort, depth), sort.ops, _TERM_LEVEL
        op = ops.get(self.kinds[self.pos])
        while op is not None and op[1] >= level:
            cls, op_level, right = op
            self.pos += 1
            x = cls(x, self.binary(sort, op_level + (not right), depth + step))
            op = ops.get(self.kinds[self.pos])
        return x

    def unary(self, depth: int) -> Formula:
        if depth > MAX_DEPTH:
            raise self.error(_TOO_DEEP, self.pos)
        kind = self.kinds[self.pos]
        if kind == "!":
            self.pos += 1
            return Not(self.unary(depth + 1))
        if kind == "true":
            self.pos += 1
            return TOP
        if kind == "false":
            self.pos += 1
            return BOTTOM
        if kind == "quant":
            return self.quant_atom(depth)
        if kind == "(":
            # Could be a parenthesized formula or a parenthesized set term
            # starting a `<=`/`=`/`!=` atom.  A group of set-term tokens is no
            # formula: if its set-atom reading fails, so would the formula
            # reading, at the atom after the group's run of `(`.
            if self.set_term_groups is None:
                self.set_term_groups = _set_term_groups(self.kinds)
            saved = self.pos
            if saved in self.set_term_groups:
                try:
                    return self.rel_atom(depth)
                except ParseError as e:
                    if e.message == _TOO_DEEP:
                        raise
                    self.pos = saved
                    while self.kinds[self.pos] == "(":
                        self.pos += 1
                    return self.rel_atom(depth)
            self.pos += 1
            f = self.binary(None, 1, depth + 2)
            self.expect(")")
            return f
        return self.rel_atom(depth)

    def quant_atom(self, depth: int) -> Formula:
        q = QuantPair[self.texts[self.pos]]
        self.pos += 1
        self.expect("(")
        a = self.binary(_SET, 1, depth + 1)
        self.expect(",")
        b = self.binary(_SET, 1, depth + 1)
        self.expect(")")
        self.expect("[")
        r = self.binary(_REL, 1, depth + 1)
        self.expect("]")
        return Atom(q, a, b, r)

    def rel_atom(self, depth: int) -> Formula:
        a = self.binary(_SET, 1, depth + 1)
        kind = self.kinds[self.pos]
        if kind not in ("<=", "=", "!="):
            raise self.unexpected(self.pos, {"<=", "=", "!="})
        self.pos += 1
        b = self.binary(_SET, 1, depth + 1)
        return Leq(a, b) if kind == "<=" else equals(a, b) if kind == "=" else Not(equals(a, b))

    def prefix(self, sort: _Sort, depth: int) -> SetTerm | RelTerm:
        i = self.pos
        if depth > MAX_DEPTH:
            raise self.error(_TOO_DEEP, i)
        kind = self.kinds[i]
        self.pos = i + 1
        if kind == "-":
            return sort.compl(self.prefix(sort, depth + _TERM_LEVEL))
        if kind == "ident":
            x = sort.var(self.texts[i])
        elif kind == "0":
            x = sort.zero
        elif kind == "1":
            x = sort.one
        elif kind == "(":
            x = self.binary(sort, 1, depth + 2)
            self.expect(")")
        else:
            raise self.unexpected(i, {"ident", "0", "1", "-", "("})
        while sort.conv is not None and self.kinds[self.pos] == "^":
            self.pos += 1
            x = sort.conv(x)
        return x


def _parse_whole(text: str, sort: _Sort | None):
    p = _Parser(text)
    x = p.binary(sort)
    if p.kinds[p.pos] != "eof":
        raise p.error(f"trailing input {p.texts[p.pos]!r}", p.pos, {"<end of input>"})
    # The parser counted depth as it recursed, but a chain that its loops
    # built (`a & b & ...`, `r^^...`) puts its first operand deeper than it
    # counted.  Each node has a token of its own, but for at most two extra
    # nodes of `=` or `!=` on a path, which a leaf's token and the end of
    # input make up for; so only an input of more than MAX_DEPTH / _TERM_LEVEL
    # tokens can hold a node deeper than MAX_DEPTH.
    if _TERM_LEVEL * len(p.kinds) > MAX_DEPTH and _too_deep(x):
        raise p.error(_TOO_DEEP, p.pos)
    return x


def parse_formula(text: str) -> Formula:
    return _parse_whole(text, None)


def parse_set_term(text: str) -> SetTerm:
    return _parse_whole(text, _SET)


def parse_rel_term(text: str) -> RelTerm:
    return _parse_whole(text, _REL)


# ---------------------------------------------------------------------------
# Printer (minimal parenthesization; a source formula re-parses to an equal AST)
# ---------------------------------------------------------------------------

# Complement, negation and the modalities sit one level above the tightest
# infix operator of their sort in _INFIX, converse above complement.
_COMPL, _CONV, _NOT = 3, 4, 5
_CONSTANTS = {SetZero: "0", RelZero: "0", SetOne: "1", RelOne: "1",
              Top: "true", Bottom: "false"}
_MODALITIES = {Diamond: "<{}>", Box: "[{}]"}


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


def print_formula(x, prec: int = 0) -> str:
    """Print a formula, modal or not, or a term with minimal parentheses."""
    cls = type(x)
    infix = _INFIX.get(cls)
    if infix is not None:
        eq = _as_equality(x) if cls is And else None
        if eq is not None:  # at atom level: no parentheses at any prec
            return f"{print_formula(eq[0])} = {print_formula(eq[1])}"
        sym, level, right = infix
        s = (print_formula(x.left, level + right) + sym
             + print_formula(x.right, level + (not right)))
        return f"({s})" if prec > level else s
    if cls is SetVar or cls is RelVar or cls is PropVar:
        return x.name
    if cls in _CONSTANTS:
        return _CONSTANTS[cls]
    if cls is SetCompl or cls is RelCompl:
        s = "-" + print_formula(x.arg, _COMPL)
        # complement under postfix ^ needs parens: (-r)^ vs -r^
        return f"({s})" if prec > _COMPL else s
    if cls is RelConv:
        return print_formula(x.arg, _CONV) + "^"
    if cls is Leq:
        return f"{print_formula(x.left)} <= {print_formula(x.right)}"
    if cls is Atom:
        return (f"{x.quant.value}({print_formula(x.left)},{print_formula(x.right)})"
                f"[{print_formula(x.rel)}]")
    if cls is Not:
        inner = _as_equality(x.arg)
        if inner is not None:
            return f"{print_formula(inner[0])} != {print_formula(inner[1])}"
        if isinstance(x.arg, Leq):
            return f"!({print_formula(x.arg)})"
        return "!" + print_formula(x.arg, _NOT)
    if cls in _MODALITIES:
        return _MODALITIES[cls].format(print_formula(x.param)) + print_formula(x.arg, _NOT)
    raise TypeError(f"not a formula or term: {x!r}")


print_set_term = print_rel_term = print_bml = print_formula


# ---------------------------------------------------------------------------
# Variable accounting and substitution
# ---------------------------------------------------------------------------

def free_set_vars(x) -> frozenset[str]:
    """Set variables occurring in a formula or term (relational terms have none)."""
    return frozenset({n.name for n in nodes(x) if isinstance(n, SetVar)})


def free_rel_vars(x) -> frozenset[str]:
    """Relational variables occurring in a formula or relational term."""
    return frozenset({n.name for n in nodes(x) if isinstance(n, RelVar)})


# Each variable node type, with the sort of what it stands for where it is a
# metavariable: a set term, a relational term or, for a letter, a formula.
VARIABLE_SORTS: dict[type, type] = {SetVar: SetTerm, RelVar: RelTerm, PropVar: Formula}


def substitute(x, binds: Mapping):
    """x with every variable node that is a key of binds replaced by its value, all
    at once (no binders, no capture); only variable nodes are looked up."""
    return transform(x, lambda n: binds.get(n, n) if type(n) in VARIABLE_SORTS else n)


def substitute_set_var(f, name: str, term: SetTerm):
    """Replace every occurrence of SetVar(name) by term."""
    return substitute(f, {SetVar(name): term})


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
            for name in values:
                if re.fullmatch(_IDENT, name) is None or name in _KINDS:
                    raise EnglishError(f"lexicon {label} map: {name!r} is not a "
                                       "variable name (want a lowercase letter, then "
                                       "letters, digits or '_'; not true or false)")

    @classmethod
    def from_data(cls, data) -> "Lexicon":
        """The lexicon described by a decoded lexicon file."""
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


# The letter of each determiner in a quantifier pair; "No" is the negated "Some".
_DETERMINERS = {"some": "E", "every": "A"}


def english_to_formula(sentence: str, reading: str, lex: Lexicon) -> Formula:
    """Translate `(Every|Some|No) NOUN VERB (every|some) NOUN` into a formula.

    The quantifier pair is the determiners' letters.  `reading` picks the
    quantifier scope: "sws" (subject wide scope) or "ows" (object wide scope:
    the pair reversed, the nouns swapped and the verb's converse), which
    differ only when the determiners do.  "No ..." is the negation of the
    corresponding "Some ..." sentence.
    """
    if reading not in ("sws", "ows"):
        raise EnglishError(f"unknown reading {reading!r} (want 'sws' or 'ows')")
    words = sentence.replace(".", " ").split()
    if len(words) != 5:
        raise EnglishError(
            f"unsupported sentence shape: want 'Det NOUN VERB det NOUN', got {sentence!r}")
    det1, noun1, verb, det2, noun2 = words
    negated = det1.lower() == "no"
    q1 = _DETERMINERS.get("some" if negated else det1.lower())
    q2 = _DETERMINERS.get(det2.lower())
    for q, det in ((q1, det1), (q2, det2)):
        if q is None:
            raise EnglishError(f"unknown determiner {det!r}")
    for noun in (noun1, noun2):
        if noun not in lex.nouns:
            raise EnglishError(f"unknown noun {noun!r}")
    if verb not in lex.verbs:
        raise EnglishError(f"unknown verb {verb!r}")
    a, b, r = SetVar(lex.nouns[noun1]), SetVar(lex.nouns[noun2]), RelVar(lex.verbs[verb])
    if reading == "ows" and q1 != q2:
        q1, q2, a, b, r = q2, q1, b, a, RelConv(r)
    f = Atom(QuantPair(q1 + q2), a, b, r)
    return Not(f) if negated else f
