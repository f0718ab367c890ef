"""Seeded inputs, operations and answer checks of the three workloads.

A workload is a list of pools.  Each pool holds the operations of one kind,
sorted by a cost proxy that can be read off the input, together with a
stride S.  Pass p of the timed phase runs, from every pool, the operations
whose index is congruent to (offset + p) mod S, so every pass draws the
same share of cheap and dear inputs and a pass's cost depends little on
the seed.  Pools with S = 1 run whole on every pass.

Every operation knows its answer without asking the code under test:

- ``refute``: axiom instances are valid by soundness, corpus conclusions
  and the quantifier dualities are theorems of the paper, and a formula of
  size s needs a bound of 2**s before the solver may claim more than
  ``NoCountermodelUpTo``;
- ``witness``: every query is built around a planted 4-point model, so
  ``sat --bound 4`` must answer ``Sat`` and the entailment must answer
  ``CountermodelFound``; the returned model is then checked by the
  reference evaluator;
- ``check``: corpus proofs are correct, and a special-rule line whose
  special variable clashes with a free set variable of its own formula
  breaks the rule's side condition, so the mutant fails at that line;
  truth values and minimized models are checked by the reference
  evaluator, and a copying build must partition W x W.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref
from relsyl import bml, cli, copying, corpus, gen, proofs, semantics, solver, syntax
from relsyl.syntax import And, Atom, Implies, Leq, Not, QuantPair, parse_formula

DUALITIES = (
    "AE(a,b)[r] <-> !EA(a,b)[-r]",
    "AA(a,b)[r] <-> !EE(a,b)[-r]",
    "AE(a,b)[-r] <-> !EA(a,b)[r]",
    "AA(a,b)[-r] <-> !EE(a,b)[r]",
)


@dataclass
class Op:
    kind: str
    key: str                                  # the input as text; feeds the digest
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


@dataclass
class Pool:
    ops: list
    stride: int = 1


@dataclass
class Workload:
    name: str
    pools: list
    offset: int
    seed: int

    def pass_ops(self, p: int) -> list:
        ops = []
        for pool in self.pools:
            k = (self.offset + p) % pool.stride
            ops.extend(pool.ops[k::pool.stride])
        random.Random(f"{self.name}:{self.seed}:pass{p}").shuffle(ops)
        return ops

    def keys(self):
        for pool in self.pools:
            for op in pool.ops:
                yield op.kind + "|" + op.key


# ---------------------------------------------------------------------------
# operations issued through the command line, in process
# ---------------------------------------------------------------------------

def _cli(argv: list):
    """Run ``relsyl`` in process; return (exit code, parsed JSON, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:     # argparse rejects bad arguments this way
            code = e.code
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None), err.getvalue()


def _verdict_error(got, code: int, verdict: str) -> Optional[str]:
    exit_code, payload, stderr = got
    if exit_code != code or not payload or payload.get("verdict") != verdict:
        shown = payload.get("verdict") if payload else stderr.strip()[:200]
        return f"exit {exit_code}, verdict {shown!r}; want exit {code}, {verdict}"
    return None


def _no_countermodel_op(kind: str, argv: list, bound: int) -> Op:
    want = {"verdict": "NoCountermodelUpTo", "bound": bound}

    def check(got):
        exit_code, payload, stderr = got
        if exit_code != 0 or payload != want:
            return f"exit {exit_code}, {payload or stderr.strip()[:200]!r}; want exit 0, {want}"
        return None

    return Op(kind, " ".join(argv), lambda: _cli(argv), check)


def valid_op(f, bound: int) -> Op:
    argv = ["--format", "json", "valid", "--bound", str(bound), "--",
            syntax.print_formula(f)]
    return _no_countermodel_op("valid", argv, bound)


def _entails_argv(premises, conclusion, bound: int) -> list:
    return (["--format", "json", "entails", "--bound", str(bound)]
            + [f"--premise={syntax.print_formula(p)}" for p in premises]
            + ["--", syntax.print_formula(conclusion)])


def entails_refute_op(premises, conclusion, bound: int) -> Op:
    return _no_countermodel_op("entails", _entails_argv(premises, conclusion, bound), bound)


# ---------------------------------------------------------------------------
# refute
# ---------------------------------------------------------------------------

REFUTE_DRAWS = 6    # instances per axiom scheme and per (bound, term depth)


def build_refute(seed: int) -> Workload:
    rng = random.Random(f"refute:{seed}")
    entries = corpus.paper_corpus()
    fixed = [valid_op(e.conclusion, 3) for e in entries]
    fixed += [valid_op(parse_formula(t), 3) for t in DUALITIES]
    for e in entries:
        c = e.conclusion
        if isinstance(c, Implies) and isinstance(c.left, And):
            fixed.append(entails_refute_op([c.left.left, c.left.right], c.right, 3))
    drawn = []
    for _ in range(REFUTE_DRAWS):
        for name in proofs.AxiomName:
            drawn.append(valid_op(gen.random_axiom_instance(name, rng, term_depth=0), 3))
            drawn.append(valid_op(gen.random_axiom_instance(name, rng, term_depth=2), 2))
    return Workload("refute", [Pool(fixed), Pool(drawn)], 0, seed)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

WITNESS_SETS = ("a", "b", "c", "d")
WITNESS_RELS = ("r", "s")
WITNESS_SAT = 4800
WITNESS_ENTAILS = 1200
WITNESS_LITERALS = (6, 10)
WITNESS_PREMISES = (5, 9)
WITNESS_STRIDE = 6      # a pass runs every sixth query of each kind


def _random_ref_model(rng: random.Random, n: int, set_vars, rel_vars) -> ref.RefModel:
    return ref.RefModel(n, {v: rng.getrandbits(n) for v in set_vars},
                        {v: tuple(rng.getrandbits(n) for _ in range(n)) for v in rel_vars})


def _literal(rng: random.Random, set_vars, rel_vars, quants=tuple(QuantPair)):
    """A Leq or a quantified atom over terms of depth at most 1."""
    shape = rng.randrange(len(quants) + 1)
    left = gen.random_set_term(rng, set_vars, 1)
    right = gen.random_set_term(rng, set_vars, 1)
    if shape == len(quants):
        return Leq(left, right)
    return Atom(quants[shape], left, right, gen.random_rel_term(rng, rel_vars, 1))


def _true_literal(rng, m: ref.RefModel, set_vars, rel_vars, quants=tuple(QuantPair)):
    lit = _literal(rng, set_vars, rel_vars, quants)
    return lit if ref.holds(m, lit) else Not(lit)


def _conjoin(fs):
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = And(f, out)
    return out


def _model_error(payload_model, bound: int, want: list) -> Optional[str]:
    m = ref.model_from_json(payload_model)
    if m.n > bound:
        return f"model has {m.n} points, more than the bound {bound}"
    for f, value in want:
        if ref.holds(m, f) is not value:
            return f"returned model makes {syntax.print_formula(f)} {not value}"
    return None


def sat_op(f, bound: int) -> Op:
    argv = ["--format", "json", "sat", "--bound", str(bound), "--",
            syntax.print_formula(f)]

    def check(got):
        return (_verdict_error(got, 0, "Sat")
                or _model_error(got[1]["witness"], bound, [(f, True)]))

    return Op("sat", " ".join(argv), lambda: _cli(argv), check)


def entails_countermodel_op(premises, conclusion, bound: int) -> Op:
    argv = _entails_argv(premises, conclusion, bound)
    want = [(p, True) for p in premises] + [(conclusion, False)]

    def check(got):
        return (_verdict_error(got, 1, "CountermodelFound")
                or _model_error(got[1]["countermodel"], bound, want))

    return Op("entails", " ".join(argv), lambda: _cli(argv), check)


def build_witness(seed: int) -> Workload:
    rng = random.Random(f"witness:{seed}")
    sat_ops, entails_ops = [], []
    for _ in range(WITNESS_SAT):
        m = _random_ref_model(rng, 4, WITNESS_SETS, WITNESS_RELS)
        lits = [_true_literal(rng, m, WITNESS_SETS, WITNESS_RELS)
                for _ in range(rng.randint(*WITNESS_LITERALS))]
        sat_ops.append(sat_op(_conjoin(lits), 4))
    for _ in range(WITNESS_ENTAILS):
        m = _random_ref_model(rng, 4, WITNESS_SETS, WITNESS_RELS)
        premises = [_true_literal(rng, m, WITNESS_SETS, WITNESS_RELS)
                    for _ in range(rng.randint(*WITNESS_PREMISES))]
        conclusion = Not(_true_literal(rng, m, WITNESS_SETS, WITNESS_RELS))
        entails_ops.append(entails_countermodel_op(premises, conclusion, 4))
    return Workload("witness", [Pool(sat_ops, WITNESS_STRIDE),
                                Pool(entails_ops, WITNESS_STRIDE)], 0, seed)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

MUTANTS_PER_PASS = 4
MODEL_OPS = {4: 200, 16: 100, 50: 160}  # per pass
MODEL_STRIDE = 8
MODELS_PER_SIZE = 6
MINIMIZE_OPS = 10                       # per pass
COPY_POINTS = 20                        # random_preframe's max_points
COPY_KAPPA = 4                          # and max_kappa
COPY_PER_SIZE = 2                       # frames of each (points, kappa); one per pass
MODEL_SETS = gen.DEFAULT_SET_VARS
MODEL_RELS = gen.DEFAULT_REL_VARS


def _proof_op(name: str, proof) -> Op:
    """Print the proof, read it back and check it; it must pass."""
    def run():
        return proofs.check_proof(proofs.proof_from_text(proofs.proof_to_text(proof)))

    def check(verdict):
        if not verdict.ok:
            return f"{name} rejected at line {verdict.bad_line}: {verdict.reason}"
        return None

    return Op("proof", name, run, check)


def _mutant_op(name: str, proof, bad_line: int) -> Op:
    def check(verdict):
        if verdict.ok or verdict.bad_line != bad_line:
            return f"{name} mutant: got ok={verdict.ok} at line {verdict.bad_line}; want line {bad_line}"
        return None

    return Op("mutant", f"{name}@{bad_line}", lambda: proofs.check_proof(proof), check)


def _mutant_pool() -> Pool:
    """Every special-rule mutant of the corpus, sorted by lines checked."""
    items = []
    for e in corpus.paper_corpus():
        lines = e.proof.lines
        for pos, line in enumerate(lines):
            if not isinstance(line.justification, proofs.JRule):
                continue
            clash = sorted(syntax.free_set_vars(line.formula))[0]
            j = dataclasses.replace(line.justification, special=clash)
            mutated = lines[:pos] + (dataclasses.replace(line, justification=j),) + lines[pos + 1:]
            items.append((pos, _mutant_op(e.name, dataclasses.replace(e.proof, lines=mutated),
                                          line.index)))
    items.sort(key=lambda t: t[0])
    return Pool([op for _, op in items], -(-len(items) // MUTANTS_PER_PASS))


def _relsyl_model(m: ref.RefModel, set_vars, rel_vars):
    domain = tuple(f"w{i}" for i in range(m.n))
    return semantics.Model(
        domain=domain,
        sets={v: frozenset(domain[i] for i in range(m.n) if m.sets[v] >> i & 1)
              for v in set_vars},
        rel={v: frozenset((domain[i], domain[j]) for i in range(m.n) for j in range(m.n)
                          if m.rels[v][i] >> j & 1)
             for v in rel_vars})


def _model_op(w: int, m, rm: ref.RefModel, f, point: str) -> Op:
    want = ref.holds(rm, f)

    def run():
        return semantics.eval_formula(m, f), bml.eval_bml(m, point, bml.translate(f))

    def check(got):
        if got != (want, want):
            return f"eval_formula, eval_bml gave {got}; want {want} at |W|={w}"
        return None

    return Op(f"model.w{w}", f"{rm!r}:{point}:{syntax.print_formula(f)}", run, check)


def _nodes(f):
    """Every node of a formula, terms included."""
    yield f
    for k in ("arg", "left", "right", "rel"):
        if hasattr(f, k):
            yield from _nodes(getattr(f, k))


def _minimize_op(m, f) -> Op:
    # at most two witness points per atom occurrence
    limit = 2 * sum(type(g).__name__ in ("Leq", "Atom") for g in _nodes(f))
    points = set(m.domain)

    def run():
        return solver.minimize_model(m, f)

    def check(small):
        if len(small.domain) > limit:
            return f"minimized model has {len(small.domain)} points; limit {limit}"
        if not set(small.domain) <= points:
            return "minimized model has points outside the original"
        if not ref.holds(ref.model_from_parts(small.domain, small.sets, small.rel), f):
            return "minimized model falsifies the formula"
        return None

    return Op("minimize", syntax.print_formula(f), run, check)


def _copy_op(pre) -> Op:
    def run():
        built = copying.build_copies(pre, copying.choose(pre))
        return built, copying.verify_contract(built, pre)

    def check(got):
        built, report = got
        if not report.ok:
            bad = [k for k, v in report.properties.items() if not v.ok]
            return f"contract fails: {bad}"
        n = len(pre.points) * (2 * pre.kappa + 1)
        if len(built.w) != n:
            return f"|W| = {len(built.w)}; want {n}"
        seen = set()
        total = 0
        for i, pairs in built.r.items():
            base = pre.r0[i]
            for (x, y) in pairs:
                if (x[0], y[0]) not in base:
                    return f"pair {(x, y)} of index {i} does not project to r0[{i}]"
            total += len(pairs)
            seen |= pairs
        if total != n * n or len(seen) != n * n:
            return f"relations do not partition W x W ({total} pairs, {len(seen)} distinct)"
        return None

    key = f"{len(pre.points)}:{pre.kappa}:{sorted(pre.conv.items())}:" + \
        ";".join(f"{i}={sorted(pre.r0[i])}" for i in sorted(pre.r0))
    return Op("copy", key, run, check)


def _copy_frames(rng: random.Random) -> list:
    """COPY_PER_SIZE random frames of every (points, kappa), sorted by |W|.

    Build time grows with |W|**2, so a seed that drew more large frames
    than another would move the check tail; drawing the same mix of sizes
    for every seed keeps that out.  ``random_preframe`` picks the size
    from its own seed, so draws of a size already full are dropped.
    """
    count: dict = {}
    frames = []
    while len(frames) < COPY_POINTS * COPY_KAPPA * COPY_PER_SIZE:
        pre = copying.random_preframe(rng.randrange(2 ** 30), max_points=COPY_POINTS,
                                      max_kappa=COPY_KAPPA)
        size = (len(pre.points), pre.kappa)
        if count.get(size, 0) < COPY_PER_SIZE:
            count[size] = count.get(size, 0) + 1
            frames.append(pre)
    # frames of one size stay adjacent, so a stride of COPY_PER_SIZE takes one of each
    frames.sort(key=lambda pre: (len(pre.points) * (2 * pre.kappa + 1), len(pre.points)))
    return frames


def build_check(seed: int) -> Workload:
    rng = random.Random(f"check:{seed}")
    pools = [Pool([_proof_op(e.name, e.proof) for e in corpus.paper_corpus()]),
             _mutant_pool()]

    for w, count in MODEL_OPS.items():
        models = []
        for _ in range(MODELS_PER_SIZE):
            rm = _random_ref_model(rng, w, MODEL_SETS, MODEL_RELS)
            models.append((rm, _relsyl_model(rm, MODEL_SETS, MODEL_RELS)))
        drawn = []
        for _ in range(count * MODEL_STRIDE):
            rm, m = rng.choice(models)
            f = gen.random_formula(rng, depth=4)
            drawn.append((sum(1 for _ in _nodes(f)), _model_op(w, m, rm, f, rng.choice(m.domain))))
        drawn.sort(key=lambda t: t[0])
        pools.append(Pool([op for _, op in drawn], MODEL_STRIDE))

    minimize_ops = []
    fragment = (QuantPair.EE, QuantPair.AA)
    for _ in range(MINIMIZE_OPS):
        rm = _random_ref_model(rng, 50, MODEL_SETS, MODEL_RELS)
        m = _relsyl_model(rm, MODEL_SETS, MODEL_RELS)
        lits = [_true_literal(rng, rm, MODEL_SETS, MODEL_RELS, fragment)
                for _ in range(rng.randint(4, 8))]
        minimize_ops.append(_minimize_op(m, _conjoin(lits)))
    pools.append(Pool(minimize_ops))

    pools.append(Pool([_copy_op(pre) for pre in _copy_frames(rng)], COPY_PER_SIZE))

    return Workload("check", pools, rng.randrange(1 << 16), seed)


BUILDERS = {"refute": build_refute, "witness": build_witness, "check": build_check}
