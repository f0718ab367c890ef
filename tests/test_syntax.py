"""Parser, printer, variable accounting, and controlled English."""

import dataclasses
import hashlib
import inspect
import random
import re
import sys

import pytest

from relsyl.syntax import (
    CHILD_FIELDS, TOP, And, Atom, Bottom, EnglishError, Formula, Iff,
    Implies, Leq, Lexicon, Not, Or, ParseError, QuantPair, RelCompl, RelConv,
    RelJoin, RelMeet, RelOne, RelTerm, RelVar, RelZero, SetCompl, SetJoin,
    SetMeet, SetOne, SetTerm, SetVar, SetZero, Top,
    english_to_formula, equals, free_rel_vars, free_set_vars, nodes,
    parse_formula, parse_rel_term, parse_set_term, print_formula,
    print_rel_term, print_set_term, substitute_set_var, tokenize, transform,
    _Parser,
)
from relsyl.gen import random_formula, random_rel_term, random_set_term

A, B, C = SetVar("a"), SetVar("b"), SetVar("c")
R = RelVar("r")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_simple_atom():
    assert parse_formula("EE(a,b)[r]") == Atom(QuantPair.EE, A, B, R)


def test_parse_implication_with_converse():
    f = parse_formula("EA(a,b)[r] -> AE(b,a)[r^]")
    assert f == Implies(Atom(QuantPair.EA, A, B, R),
                        Atom(QuantPair.AE, B, A, RelConv(R)))


def test_equality_desugars():
    assert parse_formula("a = b") == And(Leq(A, B), Leq(B, A))
    assert parse_formula("a = b") == equals(A, B)


def test_inequality_desugars():
    assert parse_formula("a != b") == Not(And(Leq(A, B), Leq(B, A)))


def test_malformed_atom_rejected():
    with pytest.raises(ParseError):
        parse_formula("EE(a,)[r]")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("EE(a,b)[r] &")
    assert exc.value.line == 1
    assert exc.value.col > 1
    assert exc.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_formula("EE(a,b)[r] EE(a,b)[r]")


def test_comments_and_whitespace():
    f = parse_formula("EE(a,b)[r]  # existential\n & true")
    assert f == And(Atom(QuantPair.EE, A, B, R), Top())


def test_term_precedence():
    # unary binds tightest, then *, then +
    assert parse_set_term("a + b * -c") == SetJoin(A, SetMeet(B, SetCompl(C)))
    assert parse_rel_term("r + s * -t^") == RelJoin(
        RelVar("r"), RelMeet(RelVar("s"), RelCompl(RelConv(RelVar("t")))))


def test_converse_is_postfix_and_stacks():
    assert parse_rel_term("r^^") == RelConv(RelConv(R))
    assert parse_rel_term("(r*s)^") == RelConv(RelMeet(RelVar("r"), RelVar("s")))


def _parser_steps(text, invalid=False):
    """How many parser rule calls parsing text takes, up to its ParseError if invalid."""
    codes = {fn.__code__ for fn in vars(_Parser).values() if inspect.isfunction(fn)}
    steps = 0

    def profile(frame, event, _arg):
        nonlocal steps
        if event == "call" and frame.f_code in codes:
            steps += 1

    sys.setprofile(profile)
    try:
        if invalid:
            with pytest.raises(ParseError, match=r"unexpected token '\)'"):
                parse_formula(text)
        else:
            parse_formula(text)
    finally:
        sys.setprofile(None)
    return steps


def test_nested_parentheses_parse_in_linear_steps():
    steps = [_parser_steps("(" * k + "true" + ")" * k) for k in (40, 80, 160)]
    assert steps[1] <= 2.2 * steps[0] and steps[2] <= 2.2 * steps[1], steps


def test_invalid_nested_set_term_groups_parse_in_linear_steps():
    # a group of set-term tokens is no formula, so once its set-atom reading
    # fails the input is wrong; it once read the group again as a formula,
    # retrying every inner group
    steps = [_parser_steps("(" * k + "a" + ")" * k + " & true", invalid=True)
             for k in (40, 80, 160)]
    assert steps[1] <= 2.2 * steps[0] and steps[2] <= 2.2 * steps[1], steps


def test_implication_right_associative():
    f = parse_formula("true -> false -> true")
    assert f == Implies(Top(), Implies(Bottom(), Top()))


def test_iff_chains_left():
    f = parse_formula("true <-> false <-> true")
    assert f == Iff(Iff(Top(), Bottom()), Top())


def test_constants_by_position():
    f = parse_formula("AA(a*b,1)[0]")
    assert f == Atom(QuantPair.AA, SetMeet(A, B), SetOne(), RelZero())
    g = parse_formula("EE(0,1)[1]")
    assert g == Atom(QuantPair.EE, SetZero(), SetOne(), RelOne())


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def test_print_examples():
    assert print_formula(Atom(QuantPair.AA, SetMeet(A, B), SetOne(), RelZero())) \
        == "AA(a*b,1)[0]"
    assert print_formula(Not(Leq(A, B))) == "!(a <= b)"
    assert print_formula(equals(A, B)) == "a = b"
    assert print_formula(Not(equals(A, B))) == "a != b"


def _rand_set(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([SetVar("a"), SetVar("b"), SetVar("c"),
                           SetZero(), SetOne()])
    k = rng.randrange(3)
    if k == 0:
        return SetCompl(_rand_set(rng, depth - 1))
    cls = SetMeet if k == 1 else SetJoin
    return cls(_rand_set(rng, depth - 1), _rand_set(rng, depth - 1))


def _rand_rel(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([RelVar("r"), RelVar("s"), RelZero(), RelOne()])
    k = rng.randrange(4)
    if k == 0:
        return RelCompl(_rand_rel(rng, depth - 1))
    if k == 1:
        return RelConv(_rand_rel(rng, depth - 1))
    cls = RelMeet if k == 2 else RelJoin
    return cls(_rand_rel(rng, depth - 1), _rand_rel(rng, depth - 1))


def _rand_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return Leq(_rand_set(rng, 2), _rand_set(rng, 2))
        if k == 1:
            return rng.choice([Top(), Bottom()])
        return Atom(rng.choice(list(QuantPair)),
                    _rand_set(rng, 2), _rand_set(rng, 2), _rand_rel(rng, 2))
    k = rng.randrange(5)
    if k == 0:
        return Not(_rand_formula(rng, depth - 1))
    cls = (And, Or, Implies, Iff)[k - 1]
    return cls(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))


def test_round_trip_set_terms():
    rng = random.Random(11)
    for _ in range(1000):
        t = _rand_set(rng, 4)
        assert parse_set_term(print_set_term(t)) == t


def test_round_trip_rel_terms():
    rng = random.Random(12)
    for _ in range(1000):
        t = _rand_rel(rng, 4)
        assert parse_rel_term(print_rel_term(t)) == t


def test_round_trip_formulas():
    rng = random.Random(13)
    for _ in range(1000):
        f = _rand_formula(rng, 4)
        assert parse_formula(print_formula(f)) == f


# ---------------------------------------------------------------------------
# traversal protocol
# ---------------------------------------------------------------------------

_NODE_BASES = (SetTerm, RelTerm, Formula)
# one value per field annotation, so that every node type can be built
_SAMPLE = {"SetTerm": A, "RelTerm": R, "Formula": TOP, "str": "x",
           "QuantPair": QuantPair.EE}


def _concrete_node_types():
    out, todo = [], list(_NODE_BASES)
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls not in _NODE_BASES:
            out.append(cls)
    return out


def test_child_field_table_lists_exactly_the_node_fields():
    types = _concrete_node_types()
    assert set(CHILD_FIELDS) == set(types)
    for cls in types:
        node = cls(**{f.name: _SAMPLE[f.type] for f in dataclasses.fields(cls)})
        holding_nodes = tuple(f.name for f in dataclasses.fields(cls)
                              if isinstance(getattr(node, f.name), _NODE_BASES))
        assert CHILD_FIELDS[cls] == holding_nodes, cls.__name__


def test_nodes_preorder_and_transform_rebuilds():
    f = parse_formula("EE(a,-b)[r^] & !(c <= 0)")
    assert list(nodes(f)) == [
        f, f.left, A, SetCompl(B), B, RelConv(R), R,
        f.right, f.right.arg, C, SetZero()]
    assert transform(f, lambda n: n) == f
    swapped = transform(f, lambda n: B if n == A else A if n == B else n)
    assert swapped == parse_formula("EE(b,-a)[r^] & !(c <= 0)")


# ---------------------------------------------------------------------------
# variable accounting and substitution
# ---------------------------------------------------------------------------

def test_free_set_vars_scan():
    f = parse_formula("AA(a*b,-c)[r]")
    assert free_set_vars(f) == {"a", "b", "c"}
    assert free_set_vars(parse_formula("0 <= 1")) == frozenset()
    assert free_rel_vars(f) == {"r"}


def test_rel_vars_do_not_leak_into_set_vars():
    f = parse_formula("EE(a,b)[a]")  # same spelling, different namespace
    assert free_set_vars(f) == {"a", "b"}
    assert free_rel_vars(f) == {"a"}


def _naive_set_vars(x):
    """Independent re-scan by walking printable text tokens is too crude;
    recurse structurally instead, written without reference to the library
    helper."""
    out = set()
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, SetVar):
            out.add(node.name)
        for attr in ("left", "right", "arg"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(
                    child, (RelVar, RelZero, RelOne)):
                stack.append(child)
        if isinstance(node, Atom):
            stack.append(node.left)
            stack.append(node.right)
    return out


def test_free_set_vars_matches_oracle():
    rng = random.Random(21)
    for _ in range(100):
        f = _rand_formula(rng, 4)
        assert free_set_vars(f) == _naive_set_vars(f)


def test_substitute_example():
    f = parse_formula("a*p = 0")
    got = substitute_set_var(f, "p", parse_set_term("a*c"))
    assert got == parse_formula("a*(a*c) = 0")


def test_substitute_identity_when_absent():
    f = parse_formula("EE(a,b)[r]")
    assert substitute_set_var(f, "p", SetMeet(A, C)) == f


def test_substitute_free_var_accounting():
    rng = random.Random(22)
    checked = 0
    while checked < 100:
        f = _rand_formula(rng, 4)
        if "a" not in free_set_vars(f):
            continue
        t = _rand_set(rng, 2)
        got = free_set_vars(substitute_set_var(f, "a", t))
        want = (free_set_vars(f) - {"a"}) | free_set_vars(t)
        assert got == want
        checked += 1


# ---------------------------------------------------------------------------
# controlled English
# ---------------------------------------------------------------------------

LEX = Lexicon(nouns={"man": "m", "animal": "n"}, verbs={"likes": "l"})


def test_some_some():
    f = english_to_formula("Some man likes some animal", "sws", LEX)
    assert f == Atom(QuantPair.EE, SetVar("m"), SetVar("n"), RelVar("l"))


def test_every_some_object_wide():
    f = english_to_formula("Every man likes some animal", "ows", LEX)
    assert f == Atom(QuantPair.EA, SetVar("n"), SetVar("m"),
                     RelConv(RelVar("l")))


def test_every_some_subject_wide():
    f = english_to_formula("Every man likes some animal", "sws", LEX)
    assert f == Atom(QuantPair.AE, SetVar("m"), SetVar("n"), RelVar("l"))


def test_some_every_both_readings():
    sws = english_to_formula("Some man likes every animal", "sws", LEX)
    ows = english_to_formula("Some man likes every animal", "ows", LEX)
    assert sws == Atom(QuantPair.EA, SetVar("m"), SetVar("n"), RelVar("l"))
    assert ows == Atom(QuantPair.AE, SetVar("n"), SetVar("m"),
                       RelConv(RelVar("l")))


def test_some_some_readings_coincide():
    sws = english_to_formula("Some man likes some animal", "sws", LEX)
    ows = english_to_formula("Some man likes some animal", "ows", LEX)
    assert sws == ows


def test_every_every_readings_coincide():
    for reading in ("sws", "ows"):
        f = english_to_formula("Every man likes every animal", reading, LEX)
        assert f == Atom(QuantPair.AA, SetVar("m"), SetVar("n"), RelVar("l"))


def test_no_is_negated_some():
    f = english_to_formula("No man likes some animal", "sws", LEX)
    assert f == Not(Atom(QuantPair.EE, SetVar("m"), SetVar("n"), RelVar("l")))


def test_unknown_word_rejected():
    with pytest.raises(EnglishError):
        english_to_formula("Every wombat likes some animal", "sws", LEX)


@pytest.mark.parametrize("sentence, reading, message", [
    ("Most man likes some animal", "sws", "unknown determiner 'Most'"),
    ("Every man likes no animal", "sws", "unknown determiner 'no'"),
    ("Every man likes most animal", "ows", "unknown determiner 'most'"),
    ("Every man hates some animal", "sws", "unknown verb 'hates'"),
    ("Every man likes some animal", "wide", "unknown reading 'wide'"),
], ids=["determiner_1", "no_second", "determiner_2", "verb", "reading"])
def test_unknown_english_is_rejected(sentence, reading, message):
    with pytest.raises(EnglishError, match=message):
        english_to_formula(sentence, reading, LEX)


def test_bad_shape_rejected():
    with pytest.raises(EnglishError):
        english_to_formula("Every man sleeps", "sws", LEX)


def test_lexicon_must_be_injective():
    with pytest.raises(EnglishError):
        Lexicon(nouns={"man": "m", "human": "m"}, verbs={})


# ---------------------------------------------------------------------------
# pinned printer and parser output
# ---------------------------------------------------------------------------

# A one-token edit of printed text: the inserted or substituted token is
# drawn from here, so every token kind of the language shows up.
_MUTANTS = ("a", "zz", "EE", "AA", "true", "false", "0", "1", "(", ")",
            "[", "]", ",", "-", "^", "*", "+", "!", "&", "|", "->", "<->",
            "<=", "=", "!=", "@")


def _pinned_lines():
    """Printed formulas and terms, and the parser's answer to edits of them.

    Each printed text must parse back to the AST it came from.  The lines
    depend only on the seeds, not on the process's hash seed.
    """
    rng = random.Random(8808)
    formulas = []
    for _ in range(1500):
        f, g = random_formula(rng), random_formula(rng)
        s, t = random_set_term(rng, depth=3), random_set_term(rng, depth=3)
        for h in (f, Not(f), And(f, g), equals(s, t), Not(equals(s, t)),
                  Implies(Not(Leq(s, t)), Iff(TOP, Bottom()))):
            text = print_formula(h)
            assert parse_formula(text) == h, text
            formulas.append(text)
            yield text
    for _ in range(1000):
        s, r = random_set_term(rng, depth=4), random_rel_term(rng, depth=4)
        s_text, r_text = print_set_term(s), print_rel_term(r)
        assert parse_set_term(s_text) == s and parse_rel_term(r_text) == r
        yield s_text
        yield r_text
    for text in rng.sample(formulas, 3000):
        tokens = tokenize(text)[:-1]
        tok = rng.choice(tokens)
        start = tok.col - 1
        end = start + len(tok.text)
        op = rng.randrange(3)
        new = "" if op == 0 else f" {rng.choice(_MUTANTS)} "
        if op == 2:
            end = start
        mutated = text[:start] + new + text[end:]
        try:
            yield f"{mutated}\t{parse_formula(mutated)!r}"
        except ParseError as e:
            yield f"{mutated}\t{e}"


def test_printer_and_parser_output_is_pinned():
    digest = hashlib.sha256("\n".join(_pinned_lines()).encode()).hexdigest()
    assert digest == "e034145b95f050eaedd54e3d8f4316a736ec78b8d7cd243082aa3ba3854181fd"


# A frozen copy of the tokenizer as it was written before the scanner read
# every token with one regex call: the oracle for `tokenize`'s kinds, texts,
# positions and error messages.
_ORACLE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<ident>[a-z][A-Za-z0-9_]*)
    | (?P<quant>EE|AE|AA|EA)
    | (?P<sym><->|->|<=|!=|=|\^|\*|\+|-|!|&|\||\(|\)|\[|\]|,|0|1)
    """,
    re.VERBOSE,
)


def _oracle_tokenize(text):
    """(kind, text, line, col) of every token, or the error message."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            return f"unexpected character {text[pos]!r} at line {line}, column {col}"
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
            kind = word if word in ("true", "false") else "ident"
            tokens.append((kind, word, line, col))
        elif m.lastgroup == "quant":
            tokens.append(("quant", m.group(), line, col))
        else:
            tokens.append((m.group(), m.group(), line, col))
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


def _tokenize_answer(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return str(e)


_TOKENIZER_EDGE_INPUTS = (
    "", " ", "\n", "#", "# only a comment", "a", "aB_9 b1",
    "EE(a,b)[r]  # existential\r\n & true # tail\r\n\r\n| a <= b\r\n",
    "# head\n\n  EE(a,b)[r] # x\n#y\n-> AA(a,b)[r^]\n# end",
    "\tEE(a,b)[r]\t&\ta <= b  \t ", "a <= b   ", "a\t<=\t\tb\t",
    "a\r<= b\r", "a\n\n  \n<= b\n  ",
    "<", "a < b", "A", "E", "@", "é", "\x0b", "a\x0bb", "a <= A", "EEE(a,b)[r]",
    "EEa", "Ab", "AAA", "1a <= 0b", "<=>", "!==", "-->", "<-", "<- >", "2", "_a",
    "a\n <= b\n @", "a <= b # é @\n & é",
)
# A character the language lacks, after a parse error.
_BAD_AFTER_PARSE_ERROR = ("a <= <= b @", "EE(a,)[r] é", "((a <= b) &) \n\n  A",
                          "!true -> & <\n")


def test_tokenizer_matches_its_frozen_oracle():
    for text in _TOKENIZER_EDGE_INPUTS + _BAD_AFTER_PARSE_ERROR:
        assert _tokenize_answer(text) == _oracle_tokenize(text), repr(text)
    for text in _pinned_lines():
        assert _tokenize_answer(text) == _oracle_tokenize(text), repr(text)


def test_bad_character_is_reported_before_an_earlier_parse_error():
    for text in _BAD_AFTER_PARSE_ERROR:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == _oracle_tokenize(text)


@pytest.mark.parametrize("name", ["1", "0", "true", "false", "r s", "A", "EE",
                                  "_a", "a-b", " a", "a\n", "#a", ""])
def test_lexicon_rejects_names_the_parser_cannot_read(name):
    with pytest.raises(EnglishError):
        Lexicon(nouns={"dogs": name}, verbs={})
    with pytest.raises(EnglishError):
        Lexicon(nouns={}, verbs={"chase": name})


def test_lexicon_names_print_back_as_parsed():
    lex = Lexicon(nouns={"dogs": "d", "cats": "cat_2B"}, verbs={"chase": "chaseR"})
    f = english_to_formula("Some dogs chase every cats", "sws", lex)
    assert parse_formula(print_formula(f)) == f
