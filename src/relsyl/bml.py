"""Translation into basic modal logic over parameterised accessibility.

Modal parameters are relational terms interpreted over the model's pair
algebra; the constant-one term plays the role of the universal modality.
Truth of a modal formula is defined at a point, so the translation is
only adequate over models with a non-empty domain (the source logic's
quantified atoms have no evaluation point).

`eval_bml` computes each subformula's extension once, as a mask over the
model's kernel (see `semantics.Kernel`): `<R>f` holds at the points with
an R-successor in the extension of f, `[R]f` at the points with none
outside it.  The truth value at a point is that point's bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import Kernel, Model
from .syntax import (
    And, Atom, Bottom, Formula, Iff, Implies, Leq, Not, Or, QuantPair,
    RelCompl, RelOne, RelTerm, SetCompl, SetJoin, SetMeet, SetOne, SetTerm,
    SetVar, SetZero, Top, print_rel_term,
)


class BmlError(ValueError):
    pass


@dataclass(frozen=True)
class BmlFormula:
    pass


@dataclass(frozen=True)
class PropVar(BmlFormula):
    name: str


@dataclass(frozen=True)
class BTop(BmlFormula):
    pass


@dataclass(frozen=True)
class BBot(BmlFormula):
    pass


@dataclass(frozen=True)
class BNot(BmlFormula):
    arg: BmlFormula


@dataclass(frozen=True)
class BAnd(BmlFormula):
    left: BmlFormula
    right: BmlFormula


@dataclass(frozen=True)
class BOr(BmlFormula):
    left: BmlFormula
    right: BmlFormula


@dataclass(frozen=True)
class BImplies(BmlFormula):
    left: BmlFormula
    right: BmlFormula


@dataclass(frozen=True)
class BIff(BmlFormula):
    left: BmlFormula
    right: BmlFormula


@dataclass(frozen=True)
class Diamond(BmlFormula):
    param: RelTerm
    arg: BmlFormula


@dataclass(frozen=True)
class Box(BmlFormula):
    param: RelTerm
    arg: BmlFormula


def translate_set_term(t: SetTerm) -> BmlFormula:
    if isinstance(t, SetVar):
        return PropVar(t.name)
    if isinstance(t, SetZero):
        return BBot()
    if isinstance(t, SetOne):
        return BTop()
    if isinstance(t, SetCompl):
        return BNot(translate_set_term(t.arg))
    if isinstance(t, SetMeet):
        return BAnd(translate_set_term(t.left), translate_set_term(t.right))
    if isinstance(t, SetJoin):
        return BOr(translate_set_term(t.left), translate_set_term(t.right))
    raise TypeError(f"not a set term: {t!r}")


def translate(f: Formula) -> BmlFormula:
    if isinstance(f, Leq):
        return Box(RelOne(), BImplies(translate_set_term(f.left),
                                      translate_set_term(f.right)))
    if isinstance(f, Atom):
        a = translate_set_term(f.left)
        b = translate_set_term(f.right)
        if f.quant is QuantPair.EE:
            return Diamond(RelOne(), BAnd(a, Diamond(f.rel, b)))
        if f.quant is QuantPair.AE:
            return Box(RelOne(), BImplies(a, Diamond(f.rel, b)))
        if f.quant is QuantPair.AA:
            return Box(RelOne(), BImplies(a, Box(RelCompl(f.rel), BNot(b))))
        # EA
        return Diamond(RelOne(), BAnd(a, Box(RelCompl(f.rel), BNot(b))))
    if isinstance(f, Not):
        return BNot(translate(f.arg))
    if isinstance(f, And):
        return BAnd(translate(f.left), translate(f.right))
    if isinstance(f, Or):
        return BOr(translate(f.left), translate(f.right))
    if isinstance(f, Implies):
        return BImplies(translate(f.left), translate(f.right))
    if isinstance(f, Iff):
        return BIff(translate(f.left), translate(f.right))
    if isinstance(f, Top):
        return BTop()
    if isinstance(f, Bottom):
        return BBot()
    raise TypeError(f"not a formula: {f!r}")


def eval_bml(m: Model, point: str, f: BmlFormula) -> bool:
    """Truth at a point.  Raises on an empty domain or a foreign point."""
    if not m.domain:
        raise BmlError("modal evaluation needs a non-empty domain")
    if point not in m.domain:
        raise BmlError(f"point {point!r} is not in the domain")
    return bool(_extension(m.kernel, f) & m.kernel.bit[point])


def _extension(k: Kernel, f: BmlFormula) -> int:
    """The mask of the points where f holds."""
    if isinstance(f, PropVar):
        return k.sets.get(f.name, 0)
    if isinstance(f, Diamond):
        return k.some(k.rows(f.param), _extension(k, f.arg))
    if isinstance(f, Box):  # no successor outside the extension of f.arg
        return k.full ^ k.some(k.rows(f.param), k.full ^ _extension(k, f.arg))
    if isinstance(f, BNot):
        return k.full ^ _extension(k, f.arg)
    if isinstance(f, BAnd):
        return _extension(k, f.left) & _extension(k, f.right)
    if isinstance(f, BOr):
        return _extension(k, f.left) | _extension(k, f.right)
    if isinstance(f, BImplies):
        return (k.full ^ _extension(k, f.left)) | _extension(k, f.right)
    if isinstance(f, BIff):
        return k.full ^ _extension(k, f.left) ^ _extension(k, f.right)
    if isinstance(f, BTop):
        return k.full
    if isinstance(f, BBot):
        return 0
    raise TypeError(f"not a modal formula: {f!r}")


_PREC = {"iff": 1, "imp": 2, "or": 3, "and": 4, "unary": 5}


def print_bml(f: BmlFormula) -> str:
    return _pp(f, 0)


def _pp(f: BmlFormula, ctx: int) -> str:
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, BTop):
        return "true"
    if isinstance(f, BBot):
        return "false"
    if isinstance(f, BNot):
        return "!" + _pp(f.arg, _PREC["unary"])
    if isinstance(f, Diamond):
        return f"<{print_rel_term(f.param)}>" + _pp(f.arg, _PREC["unary"])
    if isinstance(f, Box):
        return f"[{print_rel_term(f.param)}]" + _pp(f.arg, _PREC["unary"])
    if isinstance(f, BAnd):
        me = _PREC["and"]
        s = f"{_pp(f.left, me)} & {_pp(f.right, me + 1)}"
    elif isinstance(f, BOr):
        me = _PREC["or"]
        s = f"{_pp(f.left, me)} | {_pp(f.right, me + 1)}"
    elif isinstance(f, BImplies):
        me = _PREC["imp"]
        s = f"{_pp(f.left, me + 1)} -> {_pp(f.right, me)}"
    elif isinstance(f, BIff):
        me = _PREC["iff"]
        s = f"{_pp(f.left, me)} <-> {_pp(f.right, me + 1)}"
    else:
        raise TypeError(f"not a modal formula: {f!r}")
    return f"({s})" if ctx > me else s
