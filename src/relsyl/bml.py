"""Translation into basic modal logic over parameterised accessibility.

Modal parameters are relational terms interpreted over the model's pair
algebra; the constant-one term plays the role of the universal modality.
A modal formula is a `syntax.Formula`: the source connectives over
letters (`PropVar`), `<R>f` (`Diamond`) and `[R]f` (`Box`), printed by
`syntax.print_formula` (also named `print_bml`).  Truth of a modal
formula is defined at a point, so the translation is only adequate over
models with a non-empty domain (the source logic's quantified atoms have
no evaluation point).

`eval_bml` reads the point's bit in `semantics.truth`, the mask of the
points where the formula holds: `<R>f` holds at the points with an
R-successor in the mask of f, `[R]f` at the points with none outside it.
"""

from __future__ import annotations

from .semantics import Model, truth
from .syntax import (
    BOTTOM, RONE, TOP, And, Atom, Bottom, Box, Diamond, Formula, Iff, Implies,
    Leq, Not, Or, PropVar, RelCompl, SetCompl, SetJoin, SetMeet, SetOne,
    SetTerm, SetVar, SetZero, Top,
)
from .syntax import print_bml  # the formula printer, under its modal name


class BmlError(ValueError):
    pass


def translate_set_term(t: SetTerm) -> Formula:
    if isinstance(t, SetVar):
        return PropVar(t.name)
    if isinstance(t, SetZero):
        return BOTTOM
    if isinstance(t, SetOne):
        return TOP
    if isinstance(t, SetCompl):
        return Not(translate_set_term(t.arg))
    if isinstance(t, SetMeet):
        return And(translate_set_term(t.left), translate_set_term(t.right))
    if isinstance(t, SetJoin):
        return Or(translate_set_term(t.left), translate_set_term(t.right))
    raise TypeError(f"not a set term: {t!r}")


def translate(f: Formula) -> Formula:
    if isinstance(f, Leq):
        return Box(RONE, Implies(translate_set_term(f.left), translate_set_term(f.right)))
    if isinstance(f, Atom):
        first, second = f.quant.value
        a, b = translate_set_term(f.left), translate_set_term(f.right)
        # ?E: some r-successor in b; ?A, in negation form: no -r-successor outside b
        b = Diamond(f.rel, b) if second == "E" else Box(RelCompl(f.rel), Not(b))
        return Diamond(RONE, And(a, b)) if first == "E" else Box(RONE, Implies(a, b))
    if isinstance(f, Not):
        return Not(translate(f.arg))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(translate(f.left), translate(f.right))
    if isinstance(f, (Top, Bottom)):
        return f
    raise TypeError(f"not a formula: {f!r}")


def eval_bml(m: Model, point: str, f: Formula) -> bool:
    """Truth at a point.  Raises on an empty domain or a foreign point."""
    if not m.domain:
        raise BmlError("modal evaluation needs a non-empty domain")
    if point not in m.domain:
        raise BmlError(f"point {point!r} is not in the domain")
    return bool(truth(m.kernel, f) & m.kernel.bit[point])
