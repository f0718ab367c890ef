"""End-to-end acceptance gates.

Each test is one self-contained criterion with its own runtime budget:
axiom-scheme soundness fuzzing, the derivation corpus with side-condition
mutation, solver/oracle agreement, modal translation adequacy, the
copying contract, the polysize minimizer, the validity cross-check, and
the empty-model truth pattern.
"""

import dataclasses
import itertools
import random
import time

from relsyl.bml import eval_bml, translate
from relsyl.copying import (
    CopyingError, IndexArithmetic, PreFrame, build_copies, choose,
    random_preframe, verify_contract,
)
from relsyl.corpus import paper_corpus
from relsyl.gen import random_axiom_instance, random_formula
from relsyl.proofs import AxiomName, JRule, check_proof
from relsyl.semantics import (
    Model, empty_model, eval_formula, random_model,
)
from relsyl.solver import (
    NoCountermodelUpTo, Sat, Unsat, UnsatUpTo, is_sat, is_valid,
    minimize_model, small_model_bound,
)
from relsyl.syntax import (
    And, Atom, Implies, Leq, Not, Or, QuantPair, RelVar, SetVar, atoms_of,
    free_rel_vars, free_set_vars, parse_formula,
)


def test_criterion_1_axiom_soundness_fuzz():
    """Zero falsifications over 10^5 random axiom instances, < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(20240501)
    per_scheme = 4000
    total = 0
    for name in AxiomName:
        for _ in range(per_scheme):
            inst = random_axiom_instance(name, rng)
            m = random_model(rng.randint(0, 6),
                             sorted(free_set_vars(inst)),
                             sorted(free_rel_vars(inst)),
                             seed=rng.randrange(2 ** 30))
            assert eval_formula(m, inst), (name, inst, m)
            total += 1
    assert total >= 10 ** 5
    assert time.monotonic() - t0 < 60.0


def test_criterion_2_proof_corpus_and_mutation():
    """>= 14 derivations check in < 5 s; clashing specials are rejected."""
    t0 = time.monotonic()
    entries = paper_corpus()
    assert len(entries) >= 14
    for e in entries:
        verdict = check_proof(e.proof)
        assert verdict.ok, (e.name, verdict.bad_line, verdict.reason)
    assert time.monotonic() - t0 < 5.0

    for e in entries:
        for ln in e.proof.lines:
            if not isinstance(ln.justification, JRule):
                continue
            clashing = sorted(free_set_vars(ln.formula))[0]
            bad_j = dataclasses.replace(ln.justification, special=clashing)
            bad_line = dataclasses.replace(ln, justification=bad_j)
            mutated = dataclasses.replace(
                e.proof,
                lines=tuple(bad_line if l.index == ln.index else l
                            for l in e.proof.lines))
            verdict = check_proof(mutated)
            assert not verdict.ok and verdict.bad_line == ln.index, \
                (e.name, ln.index)


def _models_up_to_3():
    """Every model over {a,b} x {r} with at most three points, small first."""
    out = []
    for n in range(4):
        domain = tuple(f"w{i}" for i in range(n))
        pairs = [(x, y) for x in domain for y in domain]
        for abits in itertools.product([False, True], repeat=n):
            aset = frozenset(x for x, k in zip(domain, abits) if k)
            for bbits in itertools.product([False, True], repeat=n):
                bset = frozenset(x for x, k in zip(domain, bbits) if k)
                for rbits in itertools.product([False, True],
                                               repeat=len(pairs)):
                    out.append(Model(
                        domain=domain,
                        sets={"a": aset, "b": bset},
                        rel={"r": frozenset(p for p, k in zip(pairs, rbits)
                                            if k)}))
    return out


def test_criterion_3_solver_oracle_agreement():
    """is_sat(f, 3) vs. exhaustive enumeration, 1000 formulas, < 10 min."""
    t0 = time.monotonic()
    models = _models_up_to_3()
    assert len(models) == 1 + 8 + 16 * 16 + 64 * 512
    rng = random.Random(987)
    for _ in range(1000):
        f = random_formula(rng, ("a", "b"), ("r",), depth=3, term_depth=2)
        got = is_sat(f, 3)
        oracle_sat = any(eval_formula(m, f) for m in models)
        if oracle_sat:
            assert isinstance(got, Sat), f
            assert eval_formula(got.witness, f)
        else:
            assert isinstance(got, (UnsatUpTo, Unsat)), f
    assert time.monotonic() - t0 < 600.0


def test_criterion_4_translation_adequacy():
    """10^4 (formula, model, point) triples agree, plus the exhaustive
    atom check on every model with |W| <= 3; < 5 min."""
    t0 = time.monotonic()
    rng = random.Random(555)
    for i in range(10 ** 4):
        f = random_formula(rng, ("a", "b", "c"), ("r", "s"), depth=3)
        m = random_model(rng.randint(1, 4), ["a", "b", "c"], ["r", "s"],
                         seed=rng.randrange(2 ** 30))
        x = rng.choice(m.domain)
        assert eval_bml(m, x, translate(f)) == eval_formula(m, f), (f, m, x)

    atoms = [Atom(q, SetVar("a"), SetVar("b"), RelVar("r"))
             for q in QuantPair]
    translated = [(f, translate(f)) for f in atoms]
    for m in _models_up_to_3():
        if not m.domain:
            continue
        for f, bf in translated:
            want = eval_formula(m, f)
            for x in m.domain:
                assert eval_bml(m, x, bf) == want, (f, m, x)
    assert time.monotonic() - t0 < 300.0


def _symmetric_subsets(pairs):
    blocks = sorted({frozenset({p, (p[1], p[0])}) for p in pairs},
                    key=lambda b: sorted(b))
    for keep in itertools.product([False, True], repeat=len(blocks)):
        out = set()
        for block, k in zip(blocks, keep):
            if k:
                out |= block
        yield frozenset(out)


def _all_preframes_small():
    """Every valid frame with at most two points and kappa <= 2."""
    for points in (("u",), ("u", "v")):
        pairs = [(x, y) for x in points for y in points]
        subsets = [frozenset(c) for n in range(len(pairs) + 1)
                   for c in itertools.combinations(pairs, n)]
        for kappa, conv in ((1, {1: 1}), (2, {1: 1, 2: 2}), (2, {1: 2, 2: 1})):
            reps = sorted(i for i in conv if i <= conv[i])
            choices_per_rep = []
            for i in reps:
                if conv[i] == i:
                    choices_per_rep.append(list(_symmetric_subsets(pairs)))
                else:
                    choices_per_rep.append(subsets)
            for picked in itertools.product(*choices_per_rep):
                r0 = {}
                for i, rel in zip(reps, picked):
                    r0[i] = rel
                    if conv[i] != i:
                        r0[conv[i]] = frozenset((y, x) for x, y in rel)
                try:
                    pre = PreFrame(points=points, kappa=kappa, conv=conv, r0=r0)
                except CopyingError:
                    continue
                yield pre


def test_criterion_5_copying_contract():
    """All five partition properties, exhaustively on tiny frames and on
    10^4 random frames; arithmetic laws exhaustively for kappa <= 8;
    < 10 min."""
    t0 = time.monotonic()
    count = 0
    for pre in _all_preframes_small():
        cf = build_copies(pre, choose(pre))
        report = verify_contract(cf, pre)
        assert report.ok, (pre, {k: v for k, v in report.properties.items()
                                 if not v.ok})
        count += 1
    assert count >= 30  # the exhaustive family is not degenerate

    for seed in range(10 ** 4):
        pre = random_preframe(seed, max_points=5, max_kappa=4)
        cf = build_copies(pre, choose(pre))
        report = verify_contract(cf, pre)
        assert report.ok, (seed, {k: v for k, v in report.properties.items()
                                  if not v.ok})

    for kappa in range(1, 9):
        arith = IndexArithmetic(kappa)
        for m in arith.carrier:
            for n in arith.carrier:
                d = arith.ominus(m, n)
                assert 0 <= d <= kappa and d == arith.ominus(n, m)
            for n in range(1, kappa + 1):
                assert arith.ominus(arith.oplus(m, n), m) == n
                assert arith.lessdot(m, arith.oplus(m, n))
            assert not arith.lessdot(m, m)
    assert time.monotonic() - t0 < 600.0


def _random_fragment_formula(rng):
    """A connective tree over at most five EE/AA/Leq atoms."""
    def atom():
        kind = rng.randrange(3)
        a = SetVar(rng.choice("ab"))
        b = SetVar(rng.choice("ab"))
        if kind == 0:
            return Leq(a, b)
        q = QuantPair.EE if kind == 1 else QuantPair.AA
        return Atom(q, a, b, RelVar("r"))

    def build(budget):
        if budget == 1 or rng.random() < 0.4:
            return atom(), 1
        if rng.random() < 0.25:
            f, used = build(budget)
            return Not(f), used
        left, lu = build(budget - 1)
        right, ru = build(budget - lu)
        cls = rng.choice((And, Or, Implies))
        return cls(left, right), lu + ru

    f, _ = build(5)
    return f


def test_criterion_6_polysize_minimizer():
    """500 satisfiable fragment formulas over 50-point models: truth is
    preserved and |W'| <= 2 * atom count; < 2 min."""
    t0 = time.monotonic()
    rng = random.Random(31337)
    done = 0
    while done < 500:
        f = _random_fragment_formula(rng)
        assert small_model_bound(f) is not None
        m = None
        for _ in range(50):
            cand = random_model(50, ["a", "b"], ["r"],
                                seed=rng.randrange(2 ** 30),
                                density=rng.choice((0.05, 0.3, 0.7)))
            if eval_formula(cand, f):
                m = cand
                break
        if m is None:
            continue
        small = minimize_model(m, f)
        assert len(small.domain) <= 2 * len(atoms_of(f))
        assert eval_formula(small, f)
        done += 1
    assert time.monotonic() - t0 < 120.0


def test_criterion_7_validity_cross_check():
    """Every corpus conclusion and every quantifier-duality biconditional
    has no countermodel up to size 4; < 5 min."""
    t0 = time.monotonic()
    for e in paper_corpus():
        assert is_valid(e.conclusion, 4) == NoCountermodelUpTo(4), e.name
    biconditionals = [
        "AE(a,b)[r] <-> !EA(a,b)[-r]",
        "AA(a,b)[r] <-> !EE(a,b)[-r]",
        "AE(a,b)[-r] <-> !EA(a,b)[r]",
        "AA(a,b)[-r] <-> !EE(a,b)[r]",
    ]
    for text in biconditionals:
        assert is_valid(parse_formula(text), 4) == NoCountermodelUpTo(4), text
    assert time.monotonic() - t0 < 300.0


def test_criterion_8_empty_model_semantics():
    """On the empty model universal atoms are true and existential atoms
    false, for every atom over a small vocabulary; < 1 s."""
    t0 = time.monotonic()
    m = empty_model()
    from relsyl.syntax import SetOne, SetZero, RelOne, RelZero
    set_terms = [SetVar("a"), SetVar("b"), SetZero(), SetOne()]
    rel_terms = [RelVar("r"), RelZero(), RelOne()]
    for a in set_terms:
        for b in set_terms:
            assert eval_formula(m, Leq(a, b))
            for al in rel_terms:
                assert eval_formula(m, Atom(QuantPair.AE, a, b, al))
                assert eval_formula(m, Atom(QuantPair.AA, a, b, al))
                assert not eval_formula(m, Atom(QuantPair.EE, a, b, al))
                assert not eval_formula(m, Atom(QuantPair.EA, a, b, al))
    assert time.monotonic() - t0 < 1.0
