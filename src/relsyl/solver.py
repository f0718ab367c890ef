"""Bounded satisfiability, validity and entailment.

The search enumerates candidate domain sizes 0..max_size.  For each size
the unknown membership and edge bits are assigned on an explicit trail,
so no search depth can overflow the interpreter stack.  At each node the
formula is evaluated three-valued under the partial assignment, and the
search branches only on a bit that an undetermined part of the formula
actually depends on (the leftmost one, False before True).

Two rules prune the tree, both sound and both keeping the search
complete for the candidate size:

- Conflict-directed backjumping (Prosser, 1993).  A node where the
  formula is False yields its justification: the assigned bits under
  which strong-Kleene evaluation still gives False.  A node whose False
  branch failed for reasons not involving its own bit skips its True
  branch; failures pass the union of their justifications up the trail.
- Point-symmetry breaking (lex-leader, Crawford et al., 1996).  Sorting
  the points of a model by their membership vectors over the sorted set
  variables gives an isomorphic model, so a node whose assigned bits show
  point i's vector lex-greater than point i+1's is pruned; the compared
  bits are its justification.

This is deterministic.  `Unsat` is only reported when the bound reaches
the exponential completeness threshold; otherwise a negative answer is
the honest `UnsatUpTo`.
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
        # Each bit owns one bit of an int, so a justification or conflict
        # set is a mask: union is `|`, and no decision iterates a set.  Set
        # bits come first, then edge bits, each block in row-major order.
        self.set_vars, self.rel_vars = list(set_vars), list(rel_vars)
        s = len(set_vars)
        pow2 = [1 << k for k in range((s + len(rel_vars) * n) * n)]
        rows = [pow2[k * n:(k + 1) * n] for k in range(s + len(rel_vars) * n)]
        self.set_masks = dict(zip(set_vars, rows))
        self.rel_masks = {v: rows[s + k * n:s + (k + 1) * n]
                          for k, v in enumerate(rel_vars)}
        self.lex_order = sorted(set_vars)

    # Every walker returns (truth value or None, mask).  When the value is
    # determined, the mask is its justification: assigned bits under which
    # strong-Kleene evaluation still gives that value.  The operands that
    # decide a value justify it: the dominant operand alone, or both; one
    # witnessing pair, or one false component of every pair.  When the
    # value is undetermined, the mask is the single branch bit: the
    # leftmost unknown bit the value depends on.

    def justify_set(self, t: SetTerm, i: int):
        cls = type(t)
        if cls is SetVar:
            return self.sets[t.name][i], self.set_masks[t.name][i]
        op = KLEENE.get(cls)
        if op is not None:
            _, dom = op  # no term connective negates its left operand
            l, lm = self.justify_set(t.left, i)
            if l is dom:
                return dom, lm
            r, rm = self.justify_set(t.right, i)
            if r is dom:
                return dom, rm
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return not dom, lm | rm
        if isinstance(t, SetZero):
            return False, 0
        if isinstance(t, SetOne):
            return True, 0
        if isinstance(t, SetCompl):
            v, m = self.justify_set(t.arg, i)
            return (None if v is None else not v), m
        raise TypeError(f"not a set term: {t!r}")

    def justify_rel(self, t: RelTerm, i: int, j: int):
        cls = type(t)
        if cls is RelVar:
            return self.rels[t.name][i][j], self.rel_masks[t.name][i][j]
        op = KLEENE.get(cls)
        if op is not None:
            _, dom = op  # no term connective negates its left operand
            l, lm = self.justify_rel(t.left, i, j)
            if l is dom:
                return dom, lm
            r, rm = self.justify_rel(t.right, i, j)
            if r is dom:
                return dom, rm
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return not dom, lm | rm
        if isinstance(t, RelZero):
            return False, 0
        if isinstance(t, RelOne):
            return True, 0
        if isinstance(t, RelCompl):
            v, m = self.justify_rel(t.arg, i, j)
            return (None if v is None else not v), m
        if isinstance(t, RelConv):
            return self.justify_rel(t.arg, j, i)
        raise TypeError(f"not a relational term: {t!r}")

    def justify_atom(self, f: Atom):
        # Kleene evaluation with full short-circuiting: a pair whose
        # conjunct/disjunct is already decided contributes no unknown bit.
        # AA(a,b)[r] is !EE(a,b)[-r] and EA(a,b)[r] is !AE(a,b)[-r], so the
        # dual pairs run the EE and AE loops with every r bit negated (the
        # `dual` flag) and the result negated.
        n = self.n
        q = f.quant
        dual = q is QuantPair.AA or q is QuantPair.EA
        rights = [self.justify_set(f.right, j) for j in range(n)]
        reason = unknown = 0
        if q is QuantPair.EE or q is QuantPair.AA:
            # EE: OR over pairs of (a_i & b_j & r_ij)
            for i in range(n):
                a, am = self.justify_set(f.left, i)
                if a is False:
                    reason |= am
                    continue
                for j, (bv, bm) in enumerate(rights):
                    if bv is False:
                        reason |= bm
                        continue
                    r, rm = self.justify_rel(f.rel, i, j)
                    if r is dual:
                        reason |= rm
                        continue
                    if a is True and bv is True and r is not None:
                        return not dual, am | bm | rm
                    if not unknown:
                        unknown = am if a is None else bm if bv is None else rm
            return (None, unknown) if unknown else (dual, reason)
        # AE: AND over i of (!a_i | EXISTS j (b_j & r_ij))
        for i in range(n):
            a, am = self.justify_set(f.left, i)
            if a is False:
                reason |= am
                continue
            row, row_unknown = am, 0
            for j, (bv, bm) in enumerate(rights):
                if bv is False:
                    row |= bm
                    continue
                r, rm = self.justify_rel(f.rel, i, j)
                if r is dual:
                    row |= rm
                    continue
                if bv is True and r is not None:
                    reason |= bm | rm
                    break
                if not row_unknown:
                    row_unknown = bm if bv is None else rm
            else:
                if a is True and not row_unknown:
                    return dual, row
                if not unknown:
                    unknown = am if a is None else row_unknown
        return (None, unknown) if unknown else (not dual, reason)

    def justify(self, f: Formula):
        op = KLEENE.get(type(f))
        if op is not None:
            neg, dom = op
            l, lm = self.justify(f.left)
            if l is not None and (l is not neg) is dom:
                return dom, lm
            r, rm = self.justify(f.right)
            if r is dom:
                return dom, rm
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return not dom, lm | rm
        if isinstance(f, Atom):
            return self.justify_atom(f)
        if isinstance(f, Leq):
            reason = unknown = 0
            for i in range(self.n):
                a, am = self.justify_set(f.left, i)
                if a is False:
                    reason |= am
                    continue
                bv, bm = self.justify_set(f.right, i)
                if bv is True:
                    reason |= bm
                    continue
                if a is True and bv is False:
                    return False, am | bm
                if not unknown:
                    unknown = am if a is None else bm
            return (None, unknown) if unknown else (True, reason)
        if isinstance(f, Not):
            v, m = self.justify(f.arg)
            return (None if v is None else not v), m
        if isinstance(f, Iff):
            l, lm = self.justify(f.left)
            r, rm = self.justify(f.right)
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return l == r, lm | rm
        if isinstance(f, Top):
            return True, 0
        if isinstance(f, Bottom):
            return False, 0
        raise TypeError(f"not a formula: {f!r}")

    # each ev* returns (truth value or None, branch bit or None)

    def ev(self, f: Formula):
        return self._branch(*self.justify(f))

    def ev_set(self, t: SetTerm, i: int):
        return self._branch(*self.justify_set(t, i))

    def ev_rel(self, t: RelTerm, i: int, j: int):
        return self._branch(*self.justify_rel(t, i, j))

    def _branch(self, value, mask):
        return value, (self.bit(mask) if value is None else None)

    def bit(self, mask: int):
        """The branch bit, ("s", set, i) or ("r", relation, i, j), of a
        one-bit mask."""
        n = self.n
        k = mask.bit_length() - 1
        base = len(self.set_vars) * n
        if k < base:
            return "s", self.set_vars[k // n], k % n
        k -= base
        return "r", self.rel_vars[k // (n * n)], k // n % n, k % n

    def run(self) -> Optional[Model]:
        """Return a model with n points, or None when there is none.  Each
        trail entry is (bit, its mask, its value, and once its False branch
        has failed, that branch's conflict set)."""
        trail = []
        while True:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExceeded(f"search exceeded {self.budget} nodes")
            conflict = self.unsorted(trail[-1][0]) if trail else 0
            if not conflict:
                value, mask = self.justify(self.f)
                if value is True:
                    return self.extract()
                if value is None:
                    bit = self.bit(mask)
                    trail.append((bit, mask, False, 0))
                    self.assign(bit, False)
                    continue
                conflict = mask
            # Backjump: undo every bit the conflict does not involve, up to
            # the deepest one it does.  That bit's True branch is next if
            # only its False branch has failed; otherwise both failed and
            # their conflicts, less the bit, pass further up.
            while trail:
                bit, mask, value, earlier = trail.pop()
                self.assign(bit, None)
                if not conflict & mask:
                    continue
                if value is False:
                    trail.append((bit, mask, True, conflict & ~mask))
                    self.assign(bit, True)
                    break
                conflict = (conflict | earlier) & ~mask
            else:
                return None

    def unsorted(self, bit) -> int:
        """The compared bits when the assignment of `bit` has made the
        membership vector of its point lex-greater than its successor's, or
        its predecessor's lex-greater than its own; else 0."""
        if bit[0] != "s":
            return 0
        i = bit[2]
        for p in (i - 1, i):
            if p < 0 or p + 1 >= self.n:
                continue
            compared = 0
            for name in self.lex_order:
                x, y = self.sets[name][p], self.sets[name][p + 1]
                if x is None or y is None:
                    break
                masks = self.set_masks[name]
                compared |= masks[p] | masks[p + 1]
                if x is not y:
                    if x:
                        return compared
                    break
        return 0

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
