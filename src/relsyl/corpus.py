"""A regression corpus of transcribed derivations for the proof checker.

Each corpus entry is a complete Theorem-mode proof object.  The
transcriptions expand quoted derivation sketches into fully explicit
Hilbert proofs: chained steps become Taut/MP bridges, commuted or
reassociated Boolean side conditions get explicit lattice-axiom glue
lines, and derived lemmas used inside other derivations are inlined with
fresh special variables.  Axiom lines are built as instances of their
schemes, and a rule step is stated by its conclusion, its premise derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .proofs import (
    _RULES, AxiomName, JAxiom, JMP, JRule, JTaut, Mode, Proof, ProofLine, _match, _schemes,
)
from .syntax import (
    VARIABLE_SORTS, And, Atom, Formula, Implies, Leq, Not, Or, QuantPair,
    RelCompl, RelConv, RelJoin, RelMeet, RelOne, RelTerm, RelVar, RelZero,
    SetMeet, SetJoin, SetTerm, SetVar, SetZero, equals, substitute, transform,
)

# ---------------------------------------------------------------------------
# small construction helpers
# ---------------------------------------------------------------------------

def eq0(t: SetTerm) -> Formula:
    return equals(t, SetZero())


sm, sj = SetMeet, SetJoin
# EE(a, b, r) is Atom(QuantPair.EE, a, b, r), and so on, in QuantPair's order
EE, AE, AA, EA = (partial(Atom, q) for q in QuantPair)


class ProofBuilder:
    """Accumulates proof lines; helper methods return 1-based line indices."""

    def __init__(self):
        self.lines: list[ProofLine] = []
        self._fresh = 0

    def fresh(self) -> str:
        self._fresh += 1
        return f"p{self._fresh}"

    def _add(self, formula: Formula, just) -> int:
        index = len(self.lines) + 1
        self.lines.append(ProofLine(index, formula, just))
        return index

    def formula(self, i: int) -> Formula:
        return self.lines[i - 1].formula

    def ax(self, name: AxiomName, **terms) -> int:
        """Add the instance of the axiom's first scheme (for AEQ1 and AEQ2 the EE
        one) with terms[v] for each metavariable v; one left out is a KeyError."""
        instance = transform(_schemes(name)[0], lambda x: terms[x.name]
                             if type(x) in VARIABLE_SORTS else x)
        return self._add(instance, JAxiom(name))

    def taut(self, formula: Formula) -> int:
        return self._add(formula, JTaut())

    def mp(self, i: int, j: int) -> int:
        major = self.formula(j)
        assert isinstance(major, Implies) and major.left == self.formula(i)
        return self._add(major.right, JMP(i, j))

    def rule(self, name: str, special: str, conclusion: Formula, *deps: int) -> int:
        """Derive conclusion by the named rule, with `special` for p, citing its
        premise: the premise scheme under conclusion's bindings, by tc from deps."""
        conclusion_scheme, premise_scheme = _RULES[name]
        binds: dict = {SetVar("p"): SetVar(special)}
        if not _match(conclusion_scheme, conclusion, binds):
            raise ValueError(f"not a conclusion of rule {name}: {conclusion}")
        source = self.tc(substitute(premise_scheme, binds), *deps)
        return self._add(conclusion, JRule(name, source, special))

    def tc(self, target: Formula, *deps: int) -> int:
        """Derive target as a tautological consequence of earlier lines.

        Emits one taut line dep1 -> (dep2 -> ... -> target) followed by a
        modus-ponens chain.
        """
        chain = target
        for d in reversed(deps):
            chain = Implies(self.formula(d), chain)
        cur = self.taut(chain)
        for d in deps:
            cur = self.mp(d, cur)
        return cur

    def to_proof(self) -> Proof:
        return Proof(mode=Mode.THEOREM, premises=(), lines=tuple(self.lines))


# ---------------------------------------------------------------------------
# lattice glue
# ---------------------------------------------------------------------------

def _contains(t: SetTerm, sub: SetTerm) -> bool:
    return t == sub or (isinstance(t, SetMeet)
                        and (_contains(t.left, sub) or _contains(t.right, sub)))


def d_leq(b: ProofBuilder, u: SetTerm, w: SetTerm) -> int:
    """Derive u <= w when w is a meet of projections of u."""
    if u == w:
        return b.ax(AxiomName.BA_REFL, a=u)
    if _contains(u, w):
        assert isinstance(u, SetMeet)
        if _contains(u.left, w):
            step, mid = AxiomName.BA_MEET_L, u.left
        else:
            step, mid = AxiomName.BA_MEET_R, u.right
        i1 = b.ax(step, a=u.left, b=u.right)
        if mid == w:
            return i1
        i2 = d_leq(b, mid, w)
        tr = b.ax(AxiomName.BA_TRANS, a=u, b=mid, c=w)
        return b.tc(Leq(u, w), i1, i2, tr)
    if isinstance(w, SetMeet):
        i1 = d_leq(b, u, w.left)
        i2 = d_leq(b, u, w.right)
        g = b.ax(AxiomName.BA_MEET_GLB, a=w.left, b=w.right, c=u)
        return b.tc(Leq(u, w), i1, i2, g)
    raise AssertionError(f"cannot derive {u} <= {w}")


def d_eq0_imp(b: ProofBuilder, t1: SetTerm, t2: SetTerm) -> int:
    """Derive (t1 = 0) -> (t2 = 0), given t2 <= t1 by meet rearrangement."""
    le = d_leq(b, t2, t1)
    zero = SetZero()
    tr = b.ax(AxiomName.BA_TRANS, a=t2, b=t1, c=zero)
    bot = b.ax(AxiomName.BA_BOT, a=t2)
    return b.tc(Implies(eq0(t1), eq0(t2)), le, tr, bot)


# ---------------------------------------------------------------------------
# derived lemmas (each returns the index of its final line)
# ---------------------------------------------------------------------------

def d_aa_to_ee(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """AA(x,y)[rel] & !EE(x,y)[rel] -> x = 0 | y = 0."""
    al2 = b.ax(AxiomName.AL2, a=x, b=y, c=y, al=rel)
    al1 = b.ax(AxiomName.AL1, a=x, b=y, c=x, al=rel)
    g1 = d_eq0_imp(b, sm(y, y), y)
    g2 = d_eq0_imp(b, sm(x, x), x)
    return b.tc(Implies(And(AA(x, y, rel), Not(EE(x, y, rel))),
                        Or(eq0(x), eq0(y))),
                al2, al1, g1, g2)


def d_a1_item1(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """AE(x,y)[rel] -> !EA(x,y)[-rel]."""
    p = SetVar(b.fresh())
    neg = RelCompl(rel)
    al1 = b.ax(AxiomName.AL1, a=x, b=y, c=p, al=rel)
    aneg = b.ax(AxiomName.ANEG, a=p, b=y, al=rel)
    return b.rule("R3", p.name, Implies(AE(x, y, rel), Not(EA(x, y, neg))), al1, aneg)


def d_a1_item2(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """!EA(x,y)[-rel] -> AE(x,y)[rel]."""
    p = SetVar(b.fresh())
    neg = RelCompl(rel)
    al3 = b.ax(AxiomName.AL3, a=x, b=y, c=p, al=neg)
    aneg = b.ax(AxiomName.ANEG, a=p, b=y, al=rel)
    return b.rule("R1", p.name, Implies(Not(EA(x, y, neg)), AE(x, y, rel)), al3, aneg)


def d_a1_item3(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """!EE(x,y)[-rel] -> AA(x,y)[rel]."""
    p = SetVar(b.fresh())
    q = SetVar(b.fresh())
    neg = RelCompl(rel)
    al1 = b.ax(AxiomName.AL1, a=p, b=y, c=x, al=neg)
    comm1 = d_eq0_imp(b, sm(p, x), sm(x, p))
    al2 = b.ax(AxiomName.AL2, a=p, b=q, c=y, al=neg)
    comm2 = d_eq0_imp(b, sm(q, y), sm(y, q))
    aneg = b.ax(AxiomName.ANEG, a=p, b=q, al=rel)
    step = b.tc(Implies(Not(EE(x, y, neg)),
                        Or(eq0(sm(x, p)), Or(eq0(sm(y, q)), EE(p, q, rel)))),
                al1, comm1, al2, comm2, aneg)
    phi1 = And(Not(EE(x, y, neg)), Not(eq0(sm(y, q))))
    r1 = b.rule("R1", p.name, Implies(phi1, AE(x, q, rel)), step)
    return b.rule("R2", q.name, Implies(Not(EE(x, y, neg)), AA(x, y, rel)), r1)


def d_a1_item4(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """!EA(x,y)[rel] -> AE(x,y)[-rel]."""
    p = SetVar(b.fresh())
    neg = RelCompl(rel)
    al3 = b.ax(AxiomName.AL3, a=x, b=y, c=p, al=rel)
    i3 = d_a1_item3(b, p, y, rel)
    return b.rule("R1", p.name, Implies(Not(EA(x, y, rel)), AE(x, y, neg)), al3, i3)


def d_a1_item5(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """AA(x,y)[rel] -> !EE(x,y)[-rel].

    The double complement --rel appears in intermediate lines and is
    discharged by the final complementation-axiom instance.
    """
    p = SetVar(b.fresh())
    neg = RelCompl(rel)
    negneg = RelCompl(neg)
    al2 = b.ax(AxiomName.AL2, a=x, b=y, c=p, al=rel)
    i1 = d_a1_item1(b, x, p, rel)        # AE(x,p)[rel] -> !EA(x,p)[-rel]
    i4 = d_a1_item4(b, x, p, neg)        # !EA(x,p)[-rel] -> AE(x,p)[--rel]
    r2 = b.rule("R2", p.name, Implies(AA(x, y, rel), AA(x, y, negneg)), al2, i1, i4)
    aneg = b.ax(AxiomName.ANEG, a=x, b=y, al=neg)
    return b.tc(Implies(AA(x, y, rel), Not(EE(x, y, neg))), r2, aneg)


def d_a1_item6(b: ProofBuilder, x: SetTerm, y: SetTerm, rel: RelTerm) -> int:
    """AE(x,y)[-rel] -> !EA(x,y)[rel]."""
    p = SetVar(b.fresh())
    neg = RelCompl(rel)
    al1 = b.ax(AxiomName.AL1, a=x, b=y, c=p, al=neg)
    i5 = d_a1_item5(b, p, y, rel)        # AA(p,y)[rel] -> !EE(p,y)[-rel]
    return b.rule("R3", p.name, Implies(AE(x, y, neg), Not(EA(x, y, rel))), al1, i5)


def d_a3_item1a(b: ProofBuilder, x, y, c, rel) -> int:
    """EE(x,y)[rel] & x <= c -> EE(c,y)[rel]."""
    au = b.ax(AxiomName.AU1, a=x, b=c, c=y, al=rel)
    lub = b.ax(AxiomName.BA_JOIN_LUB, a=x, b=c, c=c)
    refl = b.ax(AxiomName.BA_REFL, a=c)
    jr = b.ax(AxiomName.BA_JOIN_R, a=x, b=c)
    aeq = b.ax(AxiomName.AEQ1, a=sj(x, c), b=y, c=c, al=rel)
    return b.tc(Implies(And(EE(x, y, rel), Leq(x, c)), EE(c, y, rel)),
                au, lub, refl, jr, aeq)


def d_a3_item1b(b: ProofBuilder, x, y, c, rel) -> int:
    """EE(x,y)[rel] & y <= c -> EE(x,c)[rel]."""
    au = b.ax(AxiomName.AU2, a=x, b=y, c=c, al=rel)
    lub = b.ax(AxiomName.BA_JOIN_LUB, a=y, b=c, c=c)
    refl = b.ax(AxiomName.BA_REFL, a=c)
    jr = b.ax(AxiomName.BA_JOIN_R, a=y, b=c)
    aeq = b.ax(AxiomName.AEQ2, a=x, b=sj(y, c), c=c, al=rel)
    return b.tc(Implies(And(EE(x, y, rel), Leq(y, c)), EE(x, c, rel)),
                au, lub, refl, jr, aeq)


def d_a3_item2a(b: ProofBuilder, x, y, c, rel) -> int:
    """AA(x,y)[rel] & c <= x -> AA(c,y)[rel]."""
    neg = RelCompl(rel)
    i5 = d_a1_item5(b, x, y, rel)
    e1 = d_a3_item1a(b, c, y, x, neg)
    i3 = d_a1_item3(b, c, y, rel)
    return b.tc(Implies(And(AA(x, y, rel), Leq(c, x)), AA(c, y, rel)),
                i5, e1, i3)


def d_a3_item2b(b: ProofBuilder, x, y, c, rel) -> int:
    """AA(x,y)[rel] & c <= y -> AA(x,c)[rel]."""
    neg = RelCompl(rel)
    i5 = d_a1_item5(b, x, y, rel)
    e1 = d_a3_item1b(b, x, c, y, neg)
    i3 = d_a1_item3(b, x, c, rel)
    return b.tc(Implies(And(AA(x, y, rel), Leq(c, y)), AA(x, c, rel)),
                i5, e1, i3)


def d_a3_item3(b: ProofBuilder, x, y, c, d, rho, sigma) -> int:
    """AA(x,y)[rho] & AA(c,d)[sigma] -> AA(x*c, y*d)[rho*sigma]."""
    xc, yd = sm(x, c), sm(y, d)
    pl1 = b.ax(AxiomName.BA_MEET_L, a=x, b=c)
    pl2 = b.ax(AxiomName.BA_MEET_L, a=y, b=d)
    pr1 = b.ax(AxiomName.BA_MEET_R, a=x, b=c)
    pr2 = b.ax(AxiomName.BA_MEET_R, a=y, b=d)
    t1 = d_a3_item2a(b, x, y, xc, rho)
    t2 = d_a3_item2b(b, xc, y, yd, rho)
    t3 = d_a3_item2a(b, c, d, xc, sigma)
    t4 = d_a3_item2b(b, xc, d, yd, sigma)
    acap = b.ax(AxiomName.ACAP, a=xc, b=yd, al=rho, be=sigma)
    return b.tc(Implies(And(AA(x, y, rho), AA(c, d, sigma)),
                        AA(xc, yd, RelMeet(rho, sigma))),
                pl1, pl2, pr1, pr2, t1, t2, t3, t4, acap)


def d_aa_notee_disjoint(b: ProofBuilder, u, v, c, d, rel) -> int:
    """AA(u,v)[rel] & !EE(c,d)[rel] -> u*c = 0 | v*d = 0."""
    uc, vd = sm(u, c), sm(v, d)
    al2 = b.ax(AxiomName.AL2, a=u, b=v, c=vd, al=rel)
    al1 = b.ax(AxiomName.AL1, a=u, b=vd, c=uc, al=rel)
    e1 = d_a3_item1a(b, uc, vd, c, rel)
    pr1 = d_leq(b, uc, c)
    e2 = d_a3_item1b(b, c, vd, d, rel)
    pr2 = d_leq(b, vd, d)
    g1 = d_eq0_imp(b, sm(v, vd), vd)
    g2 = d_eq0_imp(b, sm(u, uc), uc)
    return b.tc(Implies(And(AA(u, v, rel), Not(EE(c, d, rel))),
                        Or(eq0(uc), eq0(vd))),
                al2, al1, e1, pr1, e2, pr2, g1, g2)


def d_a3_item4(b: ProofBuilder, x, y, c, d, rho, sigma) -> int:
    """AA(x,y)[rho] & !EE(c,d)[rho*sigma] -> AA(x*c, y*d)[-sigma]."""
    p = SetVar(b.fresh())
    q = SetVar(b.fresh())
    delta = RelMeet(rho, sigma)
    negs = RelCompl(sigma)
    hyp = And(AA(x, y, rho), Not(EE(c, d, delta)))
    t3 = d_a3_item3(b, x, y, p, q, rho, sigma)
    l2 = d_aa_notee_disjoint(b, sm(x, p), sm(y, q), c, d, delta)
    re1 = d_eq0_imp(b, sm(sm(x, p), c), sm(sm(x, c), p))
    re2 = d_eq0_imp(b, sm(sm(y, q), d), sm(sm(y, d), q))
    i3 = d_a1_item3(b, p, q, sigma)
    phi1 = And(hyp, Not(eq0(sm(sm(y, d), q))))
    r1 = b.rule("R1", p.name, Implies(phi1, AE(sm(x, c), q, negs)),
                t3, l2, re1, re2, i3)
    return b.rule("R2", q.name, Implies(hyp, AA(sm(x, c), sm(y, d), negs)), r1)


# ---------------------------------------------------------------------------
# corpus proofs
# ---------------------------------------------------------------------------

A, B, C, D = SetVar("a"), SetVar("b"), SetVar("c"), SetVar("d")
R, S, T = RelVar("r"), RelVar("s"), RelVar("t")


def build_sec3_worked() -> ProofBuilder:
    """EA(a,b)[r] -> AE(b,a)[r^]."""
    b = ProofBuilder()
    p = SetVar(b.fresh())
    q = SetVar(b.fresh())
    conv = RelConv(R)
    al2 = b.ax(AxiomName.AL2, a=p, b=B, c=q, al=R)
    al1 = b.ax(AxiomName.AL1, a=p, b=q, c=A, al=R)
    comm = d_eq0_imp(b, sm(p, A), sm(A, p))
    aconv = b.ax(AxiomName.ACONV, a=q, b=A, al=R)
    phi1 = And(AA(p, B, R), Not(eq0(sm(A, p))))
    r1 = b.rule("R1", q.name, Implies(phi1, AE(B, A, conv)), al2, al1, comm, aconv)
    r3 = b.rule("R3", p.name, Implies(Not(AE(B, A, conv)), Not(EA(A, B, R))), r1)
    b.tc(Implies(EA(A, B, R), AE(B, A, conv)), r3)
    return b


def _wrap(fn, *args) -> ProofBuilder:
    b = ProofBuilder()
    fn(b, *args)
    return b


def build_lemma_4_10(k: int) -> ProofBuilder:
    """a = 0 | EE(a,a)[(1 * (r1^ + -r1)) * (r2^ + -r2) * ...], via k chained RS steps."""
    b = ProofBuilder()
    specials = [SetVar(b.fresh()) for _ in range(k)]
    one = RelOne()

    def base_term(stage: int) -> SetTerm:
        # the set term the stage's RS application quantifies over:
        # a meeted with the not-yet-discharged special variables
        cur: SetTerm = A
        for sp in reversed(specials[stage + 1:]):
            cur = sm(cur, sp)
        return cur

    gamma: RelTerm = one
    prev_rs = 0
    for stage in range(k):
        p = specials[stage]
        base = base_term(stage)
        x = sm(base, p)
        if stage == 0:
            # EE(p,p)[1] or emptiness, from the total relation
            a1r = b.ax(AxiomName.A1R, a=x, b=x)
            dd = d_aa_to_ee(b, x, x, one)
            source = b.tc(Or(eq0(x), EE(x, x, one)), a1r, dd)
        else:
            source = prev_rs  # Or(eq0(x), EE(x,x)[gamma]), since x = base_term(stage-1)
        e1 = d_a3_item1a(b, x, x, p, gamma)
        pr = b.ax(AxiomName.BA_MEET_R, a=base, b=p)
        e2 = d_a3_item1b(b, p, x, p, gamma)
        rel_var = RelVar(f"r{stage + 1}")
        gamma = RelMeet(gamma, RelJoin(RelConv(rel_var), RelCompl(rel_var)))
        prev_rs = b.rule("RS", p.name, Or(eq0(base), EE(base, base, gamma)),
                         source, e1, pr, e2)
    return b


def build_p46_item5() -> ProofBuilder:
    """AA(a,b)[r*(s+t)] -> AA(a,b)[(r*s)+(r*t)]."""
    b = ProofBuilder()
    p = SetVar(b.fresh())
    q = SetVar(b.fresh())
    st = RelJoin(S, T)
    delta = RelJoin(RelMeet(R, S), RelMeet(R, T))
    hyp = AA(A, B, RelMeet(R, st))
    ap, bq = sm(A, p), sm(B, q)
    acap1 = b.ax(AxiomName.ACAP, a=A, b=B, al=R, be=st)
    i4a = d_a3_item4(b, A, B, p, q, R, S)
    i4b = d_a3_item4(b, A, B, p, q, R, T)
    aneg_s = b.ax(AxiomName.ANEG, a=ap, b=bq, al=S)
    aneg_t = b.ax(AxiomName.ANEG, a=ap, b=bq, al=T)
    acup2 = b.ax(AxiomName.ACUP, a=ap, b=bq, al=S, be=T)
    dis = d_aa_notee_disjoint(b, A, B, ap, bq, st)
    g1 = d_eq0_imp(b, sm(A, ap), ap)
    g2 = d_eq0_imp(b, sm(B, bq), bq)
    mid = b.tc(Implies(And(hyp, And(Not(EE(p, q, RelMeet(R, S))),
                                    Not(EE(p, q, RelMeet(R, T))))),
                       Or(eq0(ap), eq0(bq))),
               acap1, i4a, i4b, aneg_s, aneg_t, acup2, dis, g1, g2)
    acup1 = b.ax(AxiomName.ACUP, a=p, b=q, al=RelMeet(R, S), be=RelMeet(R, T))
    phi1 = And(hyp, Not(eq0(bq)))
    r1 = b.rule("R1", p.name, Implies(phi1, AE(A, q, delta)), mid, acup1)
    b.rule("R2", q.name, Implies(hyp, AA(A, B, delta)), r1)
    return b


def build_p46_item6() -> ProofBuilder:
    """AA(a,b)[r*-r] -> AA(a,b)[0]."""
    b = ProofBuilder()
    zero = RelZero()
    hyp = AA(A, B, RelMeet(R, RelCompl(R)))
    acap = b.ax(AxiomName.ACAP, a=A, b=B, al=R, be=RelCompl(R))
    aneg = b.ax(AxiomName.ANEG, a=A, b=B, al=R)
    dd = d_aa_to_ee(b, A, B, R)
    a0 = b.ax(AxiomName.A0, a=A, b=B, al=RelCompl(zero))
    i3 = d_a1_item3(b, A, B, zero)
    b.tc(Implies(hyp, AA(A, B, zero)), acap, aneg, dd, a0, i3)
    return b


def build_p46_item7() -> ProofBuilder:
    """EE(a,b)[1] -> EE(a,b)[r+-r]."""
    b = ProofBuilder()
    one = RelOne()
    acup = b.ax(AxiomName.ACUP, a=A, b=B, al=R, be=RelCompl(R))
    i3 = d_a1_item3(b, A, B, R)
    dd = d_aa_to_ee(b, A, B, R)
    a0 = b.ax(AxiomName.A0, a=A, b=B, al=one)
    b.tc(Implies(EE(A, B, one), EE(A, B, RelJoin(R, RelCompl(R)))),
         acup, i3, dd, a0)
    return b


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    proof: Proof

    @property
    def conclusion(self) -> Formula:
        return self.proof.conclusion


@lru_cache(maxsize=1)
def paper_corpus() -> tuple[CorpusEntry, ...]:
    entries = [
        ("sec3_worked", build_sec3_worked()),
        ("duality_1", _wrap(d_a1_item1, A, B, R)),
        ("duality_2", _wrap(d_a1_item2, A, B, R)),
        ("duality_3", _wrap(d_a1_item3, A, B, R)),
        ("duality_4", _wrap(d_a1_item4, A, B, R)),
        ("duality_5", _wrap(d_a1_item5, A, B, R)),
        ("duality_6", _wrap(d_a1_item6, A, B, R)),
        ("ee_mono_left", _wrap(d_a3_item1a, A, B, C, R)),
        ("ee_mono_right", _wrap(d_a3_item1b, A, B, C, R)),
        ("aa_anti_left", _wrap(d_a3_item2a, A, B, C, R)),
        ("aa_anti_right", _wrap(d_a3_item2b, A, B, C, R)),
        ("aa_meet", _wrap(d_a3_item3, A, B, C, D, R, S)),
        ("aa_residuation", _wrap(d_a3_item4, A, B, C, D, R, S)),
        ("reflexive_witness_1", build_lemma_4_10(1)),
        ("reflexive_witness_2", build_lemma_4_10(2)),
        ("aa_distribute", build_p46_item5()),
        ("aa_contradiction", build_p46_item6()),
        ("ee_excluded_middle", build_p46_item7()),
    ]
    return tuple(CorpusEntry(name, b.to_proof()) for name, b in entries)
