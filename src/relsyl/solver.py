"""Bounded satisfiability, validity and entailment.

The search enumerates candidate domain sizes 0..max_size.  For each size
the unknown membership and edge bits are explored by backtracking: the
formula is evaluated three-valued under the partial assignment, and the
search branches only on a bit that an undetermined part of the formula
actually depends on (False before True).  This is deterministic and
complete for the candidate size.  `Unsat` is only reported when the bound
reaches the exponential completeness threshold; otherwise a negative
answer is the honest `UnsatUpTo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .semantics import Model, eval_formula
from .syntax import (
    KLEENE, And, Atom, Bottom, Formula, Iff, Leq, Not, QuantPair, RelCompl,
    RelConv, RelOne, RelTerm, RelVar, RelZero, SetCompl, SetOne, SetTerm,
    SetVar, SetZero, Top, atoms_of, free_rel_vars, free_set_vars, nodes,
)


class SolverError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised when the configured node budget is exhausted (distinct from UnsatUpTo)."""


@dataclass(frozen=True)
class Sat:
    witness: Model


@dataclass(frozen=True)
class UnsatUpTo:
    bound: int


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class CountermodelFound:
    model: Model


@dataclass(frozen=True)
class NoCountermodelUpTo:
    bound: int


class FragmentClass(Enum):
    FULL = "Full"
    NO_MIXED_QUANTIFIERS = "NoMixedQuantifiers"


def detect_fragment(f: Formula) -> FragmentClass:
    for atom in atoms_of(f):
        if isinstance(atom, Atom) and atom.quant in (QuantPair.AE, QuantPair.EA):
            return FragmentClass.FULL
    return FragmentClass.NO_MIXED_QUANTIFIERS


def formula_size(f) -> int:
    """Number of AST nodes, terms included."""
    return sum(1 for _ in nodes(f))


# ---------------------------------------------------------------------------
# three-valued evaluation over a partial candidate model
# ---------------------------------------------------------------------------

class _Search:
    def __init__(self, f: Formula, n: int, set_vars: Sequence[str],
                 rel_vars: Sequence[str], budget: Optional[int]):
        self.f = f
        self.n = n
        self.sets = {v: [None] * n for v in set_vars}
        self.rels = {v: [[None] * n for _ in range(n)] for v in rel_vars}
        self.budget = budget
        self.nodes = 0

    # each evaluator returns (truth value or None, branch bit or None)

    def ev_set(self, t: SetTerm, i: int):
        if isinstance(t, SetVar):
            v = self.sets[t.name][i]
            if v is None:
                return None, ("s", t.name, i)
            return v, None
        op = KLEENE.get(type(t))
        if op is not None:
            _, dom = op  # no term connective negates its left operand
            l, lb = self.ev_set(t.left, i)
            if l is dom:
                return dom, None
            r, rb = self.ev_set(t.right, i)
            if r is dom:
                return dom, None
            if l is None or r is None:
                return None, lb if lb is not None else rb
            return not dom, None
        if isinstance(t, SetZero):
            return False, None
        if isinstance(t, SetOne):
            return True, None
        if isinstance(t, SetCompl):
            v, bit = self.ev_set(t.arg, i)
            return (None if v is None else not v), bit
        raise TypeError(f"not a set term: {t!r}")

    def ev_rel(self, t: RelTerm, i: int, j: int):
        if isinstance(t, RelVar):
            v = self.rels[t.name][i][j]
            if v is None:
                return None, ("r", t.name, i, j)
            return v, None
        op = KLEENE.get(type(t))
        if op is not None:
            _, dom = op  # no term connective negates its left operand
            l, lb = self.ev_rel(t.left, i, j)
            if l is dom:
                return dom, None
            r, rb = self.ev_rel(t.right, i, j)
            if r is dom:
                return dom, None
            if l is None or r is None:
                return None, lb if lb is not None else rb
            return not dom, None
        if isinstance(t, RelZero):
            return False, None
        if isinstance(t, RelOne):
            return True, None
        if isinstance(t, RelCompl):
            v, bit = self.ev_rel(t.arg, i, j)
            return (None if v is None else not v), bit
        if isinstance(t, RelConv):
            return self.ev_rel(t.arg, j, i)
        raise TypeError(f"not a relational term: {t!r}")

    def ev_atom(self, f: Atom):
        # Kleene evaluation with full short-circuiting: a pair whose
        # conjunct/disjunct is already decided contributes no unknown bit.
        # AA(a,b)[r] is !EE(a,b)[-r] and EA(a,b)[r] is !AE(a,b)[-r], so the
        # dual pairs run the EE and AE loops with every r bit negated (the
        # `dual` flag) and the result negated.
        n = self.n
        q = f.quant
        dual = q is QuantPair.AA or q is QuantPair.EA
        unknown_bit = None
        if q is QuantPair.EE or q is QuantPair.AA:
            # EE: OR over pairs of (a_i & b_j & r_ij)
            for i in range(n):
                a, ab = self.ev_set(f.left, i)
                if a is False:
                    continue
                for j in range(n):
                    bv, bb = self.ev_set(f.right, j)
                    if bv is False:
                        continue
                    r, rb = self.ev_rel(f.rel, i, j)
                    if r is dual:
                        continue
                    if a is True and bv is True and r is not None:
                        return not dual, None
                    if unknown_bit is None:
                        unknown_bit = next(b for b in (ab, bb, rb)
                                           if b is not None)
            if unknown_bit is not None:
                return None, unknown_bit
            return dual, None
        # AE: AND over i of (!a_i | EXISTS j (b_j & r_ij))
        for i in range(n):
            a, ab = self.ev_set(f.left, i)
            if a is False:
                continue
            reach = False
            row_unknown = None
            for j in range(n):
                bv, bb = self.ev_set(f.right, j)
                if bv is False:
                    continue
                r, rb = self.ev_rel(f.rel, i, j)
                if r is dual:
                    continue
                if bv is True and r is not None:
                    reach = True
                    break
                if row_unknown is None:
                    row_unknown = bb if bb is not None else rb
            if reach:
                continue
            if a is True and row_unknown is None:
                return dual, None
            if unknown_bit is None:
                unknown_bit = ab if ab is not None else row_unknown
        if unknown_bit is not None:
            return None, unknown_bit
        return not dual, None

    def ev(self, f: Formula):
        op = KLEENE.get(type(f))
        if op is not None:
            neg, dom = op
            l, lb = self.ev(f.left)
            if l is not None and (l is not neg) is dom:
                return dom, None
            r, rb = self.ev(f.right)
            if r is dom:
                return dom, None
            if l is None or r is None:
                return None, lb if lb is not None else rb
            return not dom, None
        if isinstance(f, Atom):
            return self.ev_atom(f)
        if isinstance(f, Leq):
            unknown_bit = None
            for i in range(self.n):
                a, ab = self.ev_set(f.left, i)
                if a is False:
                    continue
                bv, bb = self.ev_set(f.right, i)
                if bv is True:
                    continue
                if a is True and bv is False:
                    return False, None
                if unknown_bit is None:
                    unknown_bit = ab if ab is not None else bb
            if unknown_bit is None:
                return True, None
            return None, unknown_bit
        if isinstance(f, Not):
            v, bit = self.ev(f.arg)
            return (None if v is None else not v), bit
        if isinstance(f, Iff):
            l, lb = self.ev(f.left)
            r, rb = self.ev(f.right)
            if l is None:
                return None, lb
            if r is None:
                return None, rb
            return l == r, None
        if isinstance(f, Top):
            return True, None
        if isinstance(f, Bottom):
            return False, None
        raise TypeError(f"not a formula: {f!r}")

    def run(self) -> Optional[Model]:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes")
        value, bit = self.ev(self.f)
        if value is True:
            return self.extract()
        if value is False:
            return None
        assert bit is not None
        for choice in (False, True):
            self.assign(bit, choice)
            found = self.run()
            if found is not None:
                return found
            self.assign(bit, None)
        return None

    def assign(self, bit, value) -> None:
        if bit[0] == "s":
            _, name, i = bit
            self.sets[name][i] = value
        else:
            _, name, i, j = bit
            self.rels[name][i][j] = value

    def extract(self) -> Model:
        """Build the witness; undetermined bits default to False (empty)."""
        domain = tuple(f"w{i}" for i in range(self.n))
        sets = {v: frozenset(domain[i] for i in range(self.n) if vals[i])
                for v, vals in self.sets.items()}
        rels = {v: frozenset((domain[i], domain[j])
                             for i in range(self.n) for j in range(self.n)
                             if rows[i][j])
                for v, rows in self.rels.items()}
        return Model(domain=domain, sets=sets, rel=rels)


def is_sat(f: Formula, max_size: int = 4, *, node_budget: Optional[int] = None):
    """Search models of size 0..max_size over the formula's own vocabulary."""
    if max_size < 0:
        raise SolverError("max_size must be non-negative")
    set_vars = sorted(free_set_vars(f))
    rel_vars = sorted(free_rel_vars(f))
    for n in range(max_size + 1):
        search = _Search(f, n, set_vars, rel_vars, node_budget)
        witness = search.run()
        if witness is not None:
            return Sat(witness)
    # The paper's finite-model argument (the BML translation plus the
    # copying construction) bounds the smallest model of a satisfiable
    # formula exponentially in its size; 2**formula_size(f) points is the
    # bound relied on here, so having searched every size up to it is a
    # proof of unsatisfiability.  It is fixed: no setting may lower it.
    if max_size >= 2 ** formula_size(f):
        return Unsat()
    return UnsatUpTo(max_size)


def _dualize(verdict):
    if isinstance(verdict, Sat):
        return CountermodelFound(verdict.witness)
    if isinstance(verdict, Unsat):
        return Valid()
    return NoCountermodelUpTo(verdict.bound)


def is_valid(f: Formula, max_size: int = 4, **kw):
    return _dualize(is_sat(Not(f), max_size, **kw))


def entails(gamma: Sequence[Formula], f: Formula, max_size: int = 4, **kw):
    query: Formula = Not(f)
    for g in reversed(list(gamma)):
        query = And(g, query)
    return _dualize(is_sat(query, max_size, **kw))


# ---------------------------------------------------------------------------
# point-selection minimizer for the mixed-quantifier-free fragment
# ---------------------------------------------------------------------------

def minimize_model(m: Model, f: Formula) -> Model:
    """Select witness points so that every atom keeps its truth value.

    Works for formulas without AE/EA atoms: Leq and AA atoms (and negated
    EE atoms) are universal, hence survive restriction; each true EE atom,
    false AA atom and false Leq atom donates at most two witness points.
    """
    from .semantics import eval_rel_term, eval_set_term

    if detect_fragment(f) is not FragmentClass.NO_MIXED_QUANTIFIERS:
        raise SolverError("minimize_model requires a formula without AE/EA atoms")
    if not eval_formula(m, f):
        raise SolverError("minimize_model requires a model satisfying the formula")

    keep: list[str] = []

    def add(*points: str) -> None:
        for x in points:
            if x not in keep:
                keep.append(x)

    for atom in atoms_of(f):
        if isinstance(atom, Leq):
            left = eval_set_term(m, atom.left)
            right = eval_set_term(m, atom.right)
            if not left <= right:
                add(next(x for x in m.domain if x in left and x not in right))
        else:
            a = eval_set_term(m, atom.left)
            b = eval_set_term(m, atom.right)
            r = eval_rel_term(m, atom.rel)
            if atom.quant is QuantPair.EE:
                for x in m.domain:
                    if x not in a:
                        continue
                    hit = next((y for y in m.domain if y in b and (x, y) in r), None)
                    if hit is not None:
                        add(x, hit)
                        break
            elif atom.quant is QuantPair.AA:
                done = False
                for x in m.domain:
                    if done or x not in a:
                        continue
                    for y in m.domain:
                        if y in b and (x, y) not in r:
                            add(x, y)
                            done = True
                            break
    keep_set = set(keep)
    domain = tuple(x for x in m.domain if x in keep_set)
    return Model(
        domain=domain,
        sets={v: frozenset(members & keep_set) for v, members in m.sets.items()},
        rel={v: frozenset(p for p in pairs if p[0] in keep_set and p[1] in keep_set)
             for v, pairs in m.rel.items()},
    )
