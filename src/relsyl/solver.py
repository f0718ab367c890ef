"""Bounded satisfiability, validity and entailment.

The search enumerates candidate domain sizes 0..max_size, and stops
earlier at `small_model_bound(f)` for a formula without AE/EA atoms: no
first model has more points than that.  For each size the unknown
membership and edge bits are assigned on an explicit trail, so no
search depth can overflow the interpreter stack.  At each node the
formula is evaluated three-valued (strong Kleene) under the partial
assignment by one walker, `_Search.justify`, over formulas and terms
alike; `Leq` and the four quantifier pairs are one loop over the points
of the left set term.  The search branches only on a bit that an
undetermined part of the formula actually depends on (the leftmost one,
False before True).

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
the exponential completeness threshold, `2 ** formula_size(f)` points;
otherwise a negative answer is the honest `UnsatUpTo`.  The threshold is
unverified: it is not derived here (see `is_sat`).  The size cap is
derived (see `small_model_bound`), and it changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .semantics import Model, _grid, eval_formula, truth
from .syntax import (
    And, Atom, Bottom, Formula, Iff, Implies, Leq, Not, Or, QuantPair,
    RelCompl, RelConv, RelJoin, RelMeet, RelOne, RelVar, RelZero, SetCompl,
    SetJoin, SetMeet, SetOne, SetVar, SetZero, Top, free_rel_vars,
    free_set_vars, nodes,
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


def formula_size(f) -> int:
    """Number of AST nodes, terms included."""
    return sum(1 for _ in nodes(f))


# ---------------------------------------------------------------------------
# three-valued evaluation over a partial candidate model
# ---------------------------------------------------------------------------

# Strong Kleene (Kleene 1952) binary connectives on True/False/None, as
# (the left operand's value that decides alone, the dominant value): that
# left value, or a right operand equal to the dominant value, decides the
# result; two other known operands give the other value, and anything else
# is unknown.  Implies is Or with its left operand negated; meet and join
# of terms are And and Or pointwise.
_BINARY = {
    And: (False, False), Or: (True, True), Implies: (False, True),
    SetMeet: (False, False), SetJoin: (True, True),
    RelMeet: (False, False), RelJoin: (True, True),
}


class _Search:
    def __init__(self, f: Formula, n: int, set_vars: Sequence[str],
                 rel_vars: Sequence[str], budget: Optional[int]):
        self.f = f
        self.n = n
        self.budget = budget
        self.nodes = 0  # counted against budget; is_sat carries it across sizes
        # The partial model is one list: value[k] is True, False or None
        # (unassigned), and bit k's mask is 1 << k, so a justification or
        # conflict set is an int: union is `|`, and no decision iterates a
        # set.  Each set variable's n points come first, then each relation
        # variable's n * n pairs in row-major order.
        s = len(set_vars)
        self.value = [None] * ((s + len(rel_vars) * n) * n)
        self.set_base = {v: k * n for k, v in enumerate(set_vars)}
        self.rel_base = {v: (s + k * n) * n for k, v in enumerate(rel_vars)}
        self.edge_start = s * n
        self.lex_order = [self.set_base[v] for v in sorted(set_vars)]

    # The walker returns (truth value or None, mask).  When the value is
    # determined, the mask is its justification: assigned bits under which
    # strong-Kleene evaluation still gives that value.  The operands that
    # decide a value justify it: the dominant operand alone, or both; one
    # row that decides a quantifier, or every row that does not.  When the
    # value is undetermined, the mask is the single branch bit: the
    # leftmost unknown bit the value depends on.

    def justify(self, x, i: int = 0, j: int = 0):
        """A formula; a set term at point i; or a relational term at the
        pair whose row-major index is i and whose converse's is j.  The
        order of the cases is the one that timed fastest."""
        cls = type(x)
        if cls is SetVar:
            k = self.set_base[x.name] + i
            return self.value[k], 1 << k
        if cls is RelVar:
            k = self.rel_base[x.name] + i
            return self.value[k], 1 << k
        op = _BINARY.get(cls)
        if op is not None:
            decides, dom = op
            l, lm = self.justify(x.left, i, j)
            if l is decides:
                return dom, lm
            r, rm = self.justify(x.right, i, j)
            if r is dom:
                return dom, rm
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return not dom, lm | rm
        if cls is Atom or cls is Leq:
            return self.justify_atom(x)
        if cls is Not or cls is SetCompl or cls is RelCompl:
            v, m = self.justify(x.arg, i, j)
            return (None if v is None else not v), m
        if cls is SetZero or cls is RelZero or cls is Bottom:
            return False, 0
        if cls is SetOne or cls is RelOne or cls is Top:
            return True, 0
        if cls is RelConv:
            return self.justify(x.arg, j, i)
        if cls is Iff:
            l, lm = self.justify(x.left)
            r, rm = self.justify(x.right)
            if l is None:
                return None, lm
            if r is None:
                return None, rm
            return l == r, lm | rm
        raise TypeError(f"not a formula or term: {x!r}")

    def justify_atom(self, f: Atom | Leq):
        # One loop over the points i of a, with a row for each: b_i for
        # `Leq`, "some j in b has r_ij" for an atom.  One row that holds
        # (with a_i) decides EE and AA, the `some` pairs; one that fails
        # decides AE, EA and `Leq`.  AA(a,b)[r] is !EE(a,b)[-r] and
        # EA(a,b)[r] is !AE(a,b)[-r], so the dual pairs read every r bit
        # negated (the `dual` flag) and negate the result.
        n = self.n
        leq = type(f) is Leq
        if leq:
            some = dual = False
        else:
            q = f.quant
            some = q is QuantPair.EE or q is QuantPair.AA
            dual = q is QuantPair.AA or q is QuantPair.EA
            rights = [self.justify(f.right, j) for j in range(n)]
        reason = unknown = 0
        for i in range(n):
            a, am = self.justify(f.left, i)
            if a is False:
                reason |= am
                continue
            if leq:
                row, rm = self.justify(f.right, i)
            else:
                rm = branch = 0
                for j, (bv, bm) in enumerate(rights):
                    if bv is False:
                        rm |= bm
                        continue
                    r, m = self.justify(f.rel, i * n + j, j * n + i)
                    if r is dual:
                        rm |= m
                        continue
                    if bv is True and r is not None:
                        row, rm = True, bm | m
                        break
                    if not branch:
                        branch = bm if bv is None else m
                else:
                    row, rm = (None, branch) if branch else (False, rm)
            if row is some:
                if a is True:
                    return some is not dual, am | rm
            elif row is not None:
                reason |= rm
                continue
            if not unknown:
                unknown = am if a is None else rm
        return (None, unknown) if unknown else (some is dual, reason)

    def run(self) -> Optional[Model]:
        """Return a model with n points, or None when there is none.  Each
        trail entry is (a bit's mask, its value, and once its False branch
        has failed, that branch's conflict set)."""
        value = self.value
        trail = []
        while True:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExceeded(f"search exceeded {self.budget} nodes")
            conflict = self.unsorted(trail[-1][0]) if trail else 0
            if not conflict:
                truth, mask = self.justify(self.f)
                if truth is True:
                    return self.extract()
                if truth is None:
                    trail.append((mask, False, 0))
                    value[mask.bit_length() - 1] = False
                    continue
                conflict = mask
            # Backjump: undo every bit the conflict does not involve, up to
            # the deepest one it does.  That bit's True branch is next if
            # only its False branch has failed; otherwise both failed and
            # their conflicts, less the bit, pass further up.
            while trail:
                mask, truth, earlier = trail.pop()
                k = mask.bit_length() - 1
                value[k] = None
                if not conflict & mask:
                    continue
                if truth is False:
                    trail.append((mask, True, conflict & ~mask))
                    value[k] = True
                    break
                conflict = (conflict | earlier) & ~mask
            else:
                return None

    def unsorted(self, mask: int) -> int:
        """The compared bits when the assignment of the bit `mask` has made
        the membership vector of its point lex-greater than its successor's,
        or its predecessor's lex-greater than its own; else 0."""
        k = mask.bit_length() - 1
        if k >= self.edge_start:
            return 0
        value, n = self.value, self.n
        i = k % n
        for p in (i - 1, i):
            if p < 0 or p + 1 >= n:
                continue
            compared = 0
            for base in self.lex_order:
                k = base + p
                x, y = value[k], value[k + 1]
                if x is None or y is None:
                    break
                compared |= 3 << k
                if x is not y:
                    if x:
                        return compared
                    break
        return 0

    def extract(self) -> Model:
        """Build the witness; undetermined bits default to False (empty)."""
        n, value = self.n, self.value
        domain = _grid(n)[0]
        sets = {v: frozenset(domain[i] for i in range(n) if value[base + i])
                for v, base in self.set_base.items()}
        rels = {v: frozenset((domain[i], domain[j])
                             for i in range(n) for j in range(n)
                             if value[base + i * n + j])
                for v, base in self.rel_base.items()}
        return Model(domain=domain, sets=sets, rel=rels)


# The polarity masks of an occurrence: 1 positive, 2 negative, 3 both.
# _SWAP[mask] is the mask under a negation.
_SWAP = (0, 2, 1, 3)
# The polarity in which an atom needs witness points, by quantifier pair
# and under None for `Leq`; AE and EA have none.
_NEEDS = {QuantPair.EE: 1, QuantPair.AA: 2, None: 2}


def _witnessed(f: Formula) -> Optional[set]:
    """The atoms of f that need witness points (see `small_model_bound`),
    or None if f has an AE or EA atom or a node that is not of the source
    logic."""
    witnessed = set()
    stack = [(f, 1)]
    while stack:
        x, mask = stack.pop()
        cls = type(x)
        if cls is Atom or cls is Leq:
            needs = _NEEDS.get(x.quant if cls is Atom else None)
            if needs is None:
                return None
            if mask & needs:
                witnessed.add(x)
        elif cls is And or cls is Or:
            stack += (x.left, mask), (x.right, mask)
        elif cls is Implies:
            stack += (x.left, _SWAP[mask]), (x.right, mask)
        elif cls is Iff:
            stack += (x.left, 3), (x.right, 3)
        elif cls is Not:
            stack.append((x.arg, _SWAP[mask]))
        elif cls is not Top and cls is not Bottom:
            return None
    return witnessed


def small_model_bound(f: Formula) -> Optional[int]:
    """w(f): if f has a model, it has one with at most w(f) points.

    None for a formula with an AE or EA atom, or with a node that is not a
    connective, `Top`, `Bottom`, `Leq` or `Atom`: there is no cap then.

    One walk gives each occurrence of an atom the mask of its polarities:
    `Not` and the left side of `Implies` swap the mask, and both sides of
    `Iff` get both polarities.  w(f) sums, over the distinct atoms, 2 for
    an EE atom with a positive occurrence, 2 for an AA atom with a
    negative one and 1 for a `Leq` atom with a negative one.  The argument,
    which `minimize_model` carries out on a given model:

    - Set and relational terms are pointwise, so restricting a model to a
      subset S of its points commutes with evaluating them.
    - A true AA, a false EE and a true `Leq` stay so in any restriction.
    - A true EE (points i in a and j in b with r_ij), a false AA (i in a
      and j in b without r_ij) and a false `Leq` (i in a, not in b) stay
      so if S keeps their witness points.
    - An atom whose witnesses S does not keep can only turn false if it is
      EE and true if it is AA or `Leq`.  Such an atom occurs only in the
      polarity where that flip cannot falsify f: f is monotone in its
      positive and antitone in its negative occurrences.

    So if M satisfies f, its restriction to the witnesses counted above
    satisfies f and has at most w(f) points.
    """
    witnessed = _witnessed(f)
    if witnessed is None:
        return None
    return sum(1 if type(x) is Leq else 2 for x in witnessed)


def is_sat(f: Formula, max_size: int = 4, *, node_budget: Optional[int] = None):
    """Search models of size 0..max_size over the formula's own vocabulary,
    stopping at `small_model_bound(f)` when that is lower.  Past node_budget
    nodes, counted over all sizes, raise BudgetExceeded."""
    if max_size < 0:
        raise SolverError("max_size must be non-negative")
    set_vars = sorted(free_set_vars(f))
    rel_vars = sorted(free_rel_vars(f))
    # The cap is derived (see small_model_bound), unlike the Unsat
    # threshold below.  The search goes up in size, so the sizes it skips
    # hold no first model, and no verdict or witness changes.
    cap = small_model_bound(f)
    spent = 0  # nodes searched at the smaller sizes
    for n in range(max_size + 1 if cap is None else min(max_size, cap) + 1):
        search = _Search(f, n, set_vars, rel_vars, node_budget)
        search.nodes = spent
        witness = search.run()
        if witness is not None:
            return Sat(witness)
        spent = search.nodes
    # The paper's finite-model argument (the BML translation plus the
    # copying construction) bounds the smallest model of a satisfiable
    # formula exponentially in its size; 2**formula_size(f) points is the
    # bound relied on here, so having searched every size up to it is
    # taken as a proof of unsatisfiability.  It is unverified, not derived
    # in this repository: the exponential model property of two-variable
    # first-order logic (Grädel, Kolaitis & Vardi, BSL 1997) gives a bound
    # of this shape, but its constant has not been worked out for
    # formula_size.  It is fixed: no setting may lower it.
    # formula_size(f) >= 1, so a bound below 2 never reaches it.
    if max_size >= 2 and max_size >= 2 ** formula_size(f):
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
    """The restriction of m to the witness points that `small_model_bound`
    counts, so it satisfies f and has at most w(f) points (see the argument
    there): the first witness in domain order of each atom that needs one
    and is true EE, false AA or false `Leq` in m.

    f must be a source formula without AE/EA atoms that m satisfies.
    """
    witnessed = _witnessed(f)
    if witnessed is None:
        raise SolverError("minimize_model requires a source formula without AE/EA atoms")
    if not eval_formula(m, f):
        raise SolverError("minimize_model requires a model satisfying the formula")

    # the first witness of each atom in domain order, lowest bit first
    k = m.kernel
    keep = 0
    for atom in witnessed:
        a, b = truth(k, atom.left), truth(k, atom.right)
        if type(atom) is Leq:
            out = a & ~b & k.full
            keep |= out & -out
            continue
        for i, row in enumerate(k.rows(atom.rel)):
            hit = row & b if atom.quant is QuantPair.EE else b & ~row & k.full
            if a >> i & 1 and hit:
                keep |= (1 << i) | (hit & -hit)
                break
    kept = [(i, x) for i, x in enumerate(m.domain) if keep >> i & 1]
    return Model(
        domain=tuple(x for _, x in kept),
        sets={v: frozenset(x for i, x in kept if k.sets[v] >> i & 1) for v in m.sets},
        rel={v: frozenset((x, y) for i, x in kept for j, y in kept if rows[i] >> j & 1)
             for v, rows in ((v, k.rows(RelVar(v))) for v in m.rel)},
    )
