"""Command-line interface.

Exit codes: 0 for affirmative verdicts (true / Sat / proof ok / Valid /
NoCountermodelUpTo), 1 for negative verdicts, 2 for usage, file or parse
errors.  `--format json` emits a machine-readable block instead of the
human-readable report; both are deterministic for identical inputs and
seed.

Note that for `valid` and `entails` a NoCountermodelUpTo answer is
affirmative by convention but is *not* a proof of validity — it only
says no countermodel exists up to the bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional

from . import bml, copying, corpus, gen, proofs, semantics, solver, syntax


@dataclass
class Config:
    default_bound: int = 4
    random_seed: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.default_bound, int) or self.default_bound < 0:
            raise ValueError("default_bound must be a non-negative integer")


class _CliError(Exception):
    pass


def _emit(args, human: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}") from e


def _parse(text: str) -> syntax.Formula:
    try:
        return syntax.parse_formula(text)
    except syntax.ParseError as e:
        raise _CliError(f"parse error: {e}") from e


def _non_negative(text: str) -> int:
    """The argparse type of every count and bound flag."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"want a non-negative integer, got {text!r}")
    return int(text)


def _bound(args, config: Config) -> int:
    return config.default_bound if args.bound is None else args.bound


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args, config: Config) -> int:
    f = _parse(args.formula)
    printed = syntax.print_formula(f)
    _emit(args, [printed], {"ok": True, "formula": printed})
    return 0


def cmd_eval(args, config: Config) -> int:
    f = _parse(args.formula)
    try:
        model = semantics.model_from_json(_read_file(args.model))
    except semantics.ModelError as e:
        raise _CliError(str(e)) from e
    value = semantics.eval_formula(model, f)
    _emit(args, [f"{'true' if value else 'false'}"],
          {"ok": True, "value": value})
    return 0 if value else 1


def cmd_sat(args, config: Config) -> int:
    f = _parse(args.formula)
    bound = _bound(args, config)
    verdict = solver.is_sat(f, bound)
    if isinstance(verdict, solver.Sat):
        model_json = semantics.model_to_json(verdict.witness)
        _emit(args, ["Sat", model_json],
              {"verdict": "Sat", "witness": json.loads(model_json)})
        return 0
    if isinstance(verdict, solver.Unsat):
        _emit(args, ["Unsat"], {"verdict": "Unsat"})
        return 1
    _emit(args, [f"UnsatUpTo({verdict.bound})"],
          {"verdict": "UnsatUpTo", "bound": verdict.bound})
    return 1


def cmd_valid(args, config: Config) -> int:
    f = _parse(args.formula)
    bound = _bound(args, config)
    verdict = solver.is_valid(f, bound)
    return _report_validity(args, verdict)


def cmd_entails(args, config: Config) -> int:
    gamma = [_parse(p) for p in args.premise]
    f = _parse(args.formula)
    bound = _bound(args, config)
    verdict = solver.entails(gamma, f, bound)
    return _report_validity(args, verdict)


def _report_validity(args, verdict) -> int:
    if isinstance(verdict, solver.Valid):
        _emit(args, ["Valid"], {"verdict": "Valid"})
        return 0
    if isinstance(verdict, solver.CountermodelFound):
        model_json = semantics.model_to_json(verdict.model)
        _emit(args, ["CountermodelFound", model_json],
              {"verdict": "CountermodelFound",
               "countermodel": json.loads(model_json)})
        return 1
    # not a validity proof; affirmative by the documented convention
    _emit(args, [f"NoCountermodelUpTo({verdict.bound})"],
          {"verdict": "NoCountermodelUpTo", "bound": verdict.bound})
    return 0


def cmd_check_proof(args, config: Config) -> int:
    try:
        proof = proofs.proof_from_text(_read_file(args.file))
    except (proofs.ProofFileError, syntax.ParseError) as e:
        raise _CliError(f"bad proof file: {e}") from e
    verdict = proofs.check_proof(proof)
    if verdict.ok:
        conclusion = syntax.print_formula(proof.conclusion)
        _emit(args, [f"ok: {conclusion}"],
              {"ok": True, "conclusion": conclusion})
        return 0
    _emit(args, [f"rejected at line {verdict.bad_line}: {verdict.reason}"],
          {"ok": False, "bad_line": verdict.bad_line, "reason": verdict.reason})
    return 1


def cmd_translate(args, config: Config) -> int:
    f = _parse(args.formula)
    printed = bml.print_bml(bml.translate(f))
    _emit(args, [printed], {"ok": True, "bml": printed})
    return 0


def cmd_minimize(args, config: Config) -> int:
    f = _parse(args.formula)
    try:
        model = semantics.model_from_json(_read_file(args.model))
        small = solver.minimize_model(model, f)
    except (semantics.ModelError, solver.SolverError) as e:
        raise _CliError(str(e)) from e
    model_json = semantics.model_to_json(small)
    _emit(args, [model_json], {"ok": True, "model": json.loads(model_json)})
    return 0


def cmd_copy_build(args, config: Config) -> int:
    try:
        pre = copying.preframe_from_json(_read_file(args.file))
        seed = args.seed if args.seed is not None else config.random_seed
        choices = copying.choose(pre, policy=args.policy, seed=seed)
        built = copying.build_copies(pre, choices)
    except copying.CopyingError as e:
        raise _CliError(str(e)) from e
    report = copying.verify_contract(built, pre)
    frame_json = copying.copied_to_json(built, pre)
    human = [frame_json]
    props = {}
    for name, res in report.properties.items():
        props[name] = {"ok": res.ok}
        if not res.ok:
            props[name]["counterexample"] = repr(res.counterexample)
        human.append(f"{name}: {'ok' if res.ok else 'FAIL ' + repr(res.counterexample)}")
    _emit(args, human, {"ok": report.ok, "frame": json.loads(frame_json),
                        "contract": props})
    return 0 if report.ok else 1


def cmd_fuzz(args, config: Config) -> int:
    seed = args.seed if args.seed is not None else config.random_seed
    if seed is None:
        raise _CliError("fuzz requires --seed")
    rng = random.Random(seed)
    names = list(proofs.AxiomName)
    failures = []
    for i in range(args.instances):
        name = names[i % len(names)]
        instance = gen.random_axiom_instance(name, rng)
        model = semantics.random_model(
            rng.randint(0, args.max_size),
            sorted(syntax.free_set_vars(instance)),
            sorted(syntax.free_rel_vars(instance)),
            rng.randrange(2 ** 30))
        if not semantics.eval_formula(model, instance):
            failures.append({"axiom": name.value,
                             "formula": syntax.print_formula(instance),
                             "model": json.loads(semantics.model_to_json(model))})
    human = [f"{args.instances} instances, {len(failures)} falsified"]
    for fail in failures[:5]:
        human.append(f"FALSIFIED {fail['axiom']}: {fail['formula']}")
    _emit(args, human, {"instances": args.instances, "failures": failures})
    return 0 if not failures else 1


def cmd_corpus(args, config: Config) -> int:
    entries = corpus.paper_corpus()
    if args.action == "list":
        human = [f"{e.name}: {syntax.print_formula(e.conclusion)}" for e in entries]
        _emit(args, human,
              {"proofs": [{"name": e.name,
                           "conclusion": syntax.print_formula(e.conclusion)}
                          for e in entries]})
        return 0
    # run
    results = []
    all_ok = True
    human = []
    for e in entries:
        verdict = proofs.check_proof(e.proof)
        ok = bool(verdict)
        all_ok &= ok
        results.append({"name": e.name, "ok": ok,
                        **({} if ok else {"bad_line": verdict.bad_line,
                                          "reason": verdict.reason})})
        human.append(f"{e.name}: {'ok' if ok else 'REJECTED ' + str(verdict.reason)}")
    human.append(f"{sum(r['ok'] for r in results)}/{len(results)} ok")
    _emit(args, human, {"ok": all_ok, "results": results})
    return 0 if all_ok else 1


def cmd_from_english(args, config: Config) -> int:
    try:
        lex = syntax.Lexicon.from_json(_read_file(args.lexicon))
        f = syntax.english_to_formula(args.sentence, args.reading, lex)
    except syntax.EnglishError as e:
        raise _CliError(str(e)) from e
    printed = syntax.print_formula(f)
    _emit(args, [printed], {"ok": True, "formula": printed})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: each parse_args call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="relsyl",
        description="Relational syllogistic logic: parse, evaluate, solve, "
                    "check proofs, translate to modal logic, build copies.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--config", help="optional JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, help="parse and re-print a formula")
    p.add_argument("formula")

    p = add("eval", cmd_eval, help="evaluate a formula in a model file")
    p.add_argument("formula")
    p.add_argument("--model", required=True)

    for name, fn in (("sat", cmd_sat), ("valid", cmd_valid)):
        p = add(name, fn, help=f"bounded {name} check")
        p.add_argument("formula")
        p.add_argument("--bound", type=_non_negative, default=None)

    p = add("entails", cmd_entails, help="bounded entailment check")
    p.add_argument("formula")
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--bound", type=_non_negative, default=None)

    p = add("check-proof", cmd_check_proof, help="check a proof file")
    p.add_argument("file")

    p = add("translate", cmd_translate, help="translate into modal syntax")
    p.add_argument("formula")

    p = add("minimize", cmd_minimize,
            help="shrink a model while preserving the formula")
    p.add_argument("formula")
    p.add_argument("--model", required=True)

    p = add("copy-build", cmd_copy_build,
            help="run the copying construction on a frame file")
    p.add_argument("file")
    p.add_argument("--policy", choices=("smallest", "random"), default="smallest")
    p.add_argument("--seed", type=int, default=None)

    p = add("fuzz", cmd_fuzz, help="soundness-fuzz the axiom schemes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--instances", type=_non_negative, default=1000)
    p.add_argument("--max-size", type=_non_negative, default=6)

    p = add("corpus", cmd_corpus, help="list or run the built-in proof corpus")
    p.add_argument("action", choices=("list", "run"))

    p = add("from-english", cmd_from_english,
            help="translate a five-word English sentence")
    p.add_argument("sentence")
    p.add_argument("--reading", choices=("sws", "ows"), default="sws")
    p.add_argument("--lexicon", required=True)

    return parser


def _load_config(path: Optional[str]) -> Config:
    if not path:
        return Config()
    data = json.loads(_read_file(path))
    try:
        return Config(**data)
    except (TypeError, ValueError) as e:
        raise _CliError(f"bad config file: {e}") from e


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.fn(args, config)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser, the printer and the evaluators recurse on nesting
        print("error: maximum recursion depth exceeded (formula nested too "
              "deeply)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
