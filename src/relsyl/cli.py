"""Command-line interface.

Exit codes: 0 for affirmative verdicts (true / Sat / proof ok / Valid /
NoCountermodelUpTo), 1 for negative verdicts, 2 for usage, file or parse
errors.  `--format json` emits a machine-readable block instead of the
human-readable report; both are deterministic for identical inputs and
seed.

Note that for `valid` and `entails` a NoCountermodelUpTo answer is
affirmative by convention but is *not* a proof of validity — it only
says no countermodel exists up to the bound.

Every JSON input file is decoded here, by `_read_json`, and its reader
gets the decoded data; a file at fault gives one error line naming it.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import bml, copying, corpus, gen, proofs, semantics, solver, syntax


@dataclass
class Config:
    default_bound: int = 4
    random_seed: Optional[int] = None

    def __post_init__(self):
        # `type(...) is int`: JSON true and false are bools, which are ints
        if type(self.default_bound) is not int or self.default_bound < 0:
            raise ValueError("default_bound must be a non-negative integer")
        if self.random_seed is not None and type(self.random_seed) is not int:
            raise ValueError("random_seed must be an integer or null")


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
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError(f"cannot read {path}: {e}") from e


def _read_json(path: str, what: str, build: Callable):
    """What build makes of the JSON file at path.  Bad syntax, an integer past
    Python's digit limit, nesting past the recursion limit and data that
    build refuses (TypeError or ValueError) each become an error naming path."""
    text = _read_file(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise _CliError(f"cannot read {path}: {e}") from e
    try:
        return build(data)
    except (TypeError, ValueError) as e:
        raise _CliError(f"bad {what} file {path}: {e}") from e


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
    model = _read_json(args.model, "model", semantics.model_from_data)
    value = semantics.eval_formula(model, f)
    _emit(args, [f"{'true' if value else 'false'}"],
          {"ok": True, "value": value})
    return 0 if value else 1


# Each solver verdict's exit code, and the JSON key and attribute of the bound or
# model it carries.  NoCountermodelUpTo is affirmative by convention, not a proof.
_VERDICTS = {solver.Sat: (0, "witness", "witness"), solver.Unsat: (1, None, None),
             solver.UnsatUpTo: (1, "bound", "bound"), solver.Valid: (0, None, None),
             solver.CountermodelFound: (1, "countermodel", "model"),
             solver.NoCountermodelUpTo: (0, "bound", "bound")}


def _report(args, verdict) -> int:
    """Print a solver verdict with the bound or model it carries; return its exit code."""
    name = type(verdict).__name__
    code, key, attr = _VERDICTS[type(verdict)]
    human, payload = [name], {"verdict": name}
    if attr == "bound":
        human[0] += f"({verdict.bound})"
        payload[key] = verdict.bound
    elif attr is not None:
        model_json = semantics.model_to_json(getattr(verdict, attr))
        human.append(model_json)
        payload[key] = json.loads(model_json)
    _emit(args, human, payload)
    return code


def cmd_sat(args, config: Config) -> int:
    return _report(args, solver.is_sat(_parse(args.formula), _bound(args, config)))


def cmd_valid(args, config: Config) -> int:
    return _report(args, solver.is_valid(_parse(args.formula), _bound(args, config)))


def cmd_entails(args, config: Config) -> int:
    gamma = [_parse(p) for p in args.premise]
    return _report(args, solver.entails(gamma, _parse(args.formula), _bound(args, config)))


def cmd_check_proof(args, config: Config) -> int:
    try:
        proof = proofs.proof_from_text(_read_file(args.file))
    except (proofs.ProofFileError, syntax.ParseError) as e:
        raise _CliError(f"bad proof file {args.file}: {e}") from e
    verdict = proofs.check_proof(proof)
    if verdict.ok:
        conclusion = syntax.print_formula(proof.conclusion)
        _emit(args, [f"ok: {conclusion}"],
              {"ok": True, "conclusion": conclusion})
        return 0
    at = "" if verdict.bad_line is None else f" at line {verdict.bad_line}"
    _emit(args, [f"rejected{at}: {verdict.reason}"],
          {"ok": False, "bad_line": verdict.bad_line, "reason": verdict.reason})
    return 1


def cmd_translate(args, config: Config) -> int:
    f = _parse(args.formula)
    printed = syntax.print_formula(bml.translate(f))
    _emit(args, [printed], {"ok": True, "bml": printed})
    return 0


def cmd_minimize(args, config: Config) -> int:
    f = _parse(args.formula)
    model = _read_json(args.model, "model", semantics.model_from_data)
    small = solver.minimize_model(model, f)
    model_json = semantics.model_to_json(small)
    _emit(args, [model_json], {"ok": True, "model": json.loads(model_json)})
    return 0


def cmd_copy_build(args, config: Config) -> int:
    pre = _read_json(args.file, "frame", copying.preframe_from_data)
    seed = args.seed if args.seed is not None else config.random_seed
    choices = copying.choose(pre, policy=args.policy, seed=seed)
    built = copying.build_copies(pre, choices)
    report = copying.verify_contract(built, pre)
    frame = copying.copied_to_data(built, pre)
    # the frame is dumped once, in whichever format is printed
    human = [] if args.format == "json" else [json.dumps(frame, indent=2)]
    props = {}
    for name, res in report.properties.items():
        props[name] = {"ok": res.ok}
        if not res.ok:
            props[name]["counterexample"] = repr(res.counterexample)
        human.append(f"{name}: {'ok' if res.ok else 'FAIL ' + repr(res.counterexample)}")
    _emit(args, human, {"ok": report.ok, "frame": frame, "contract": props})
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
    lex = _read_json(args.lexicon, "lexicon", syntax.Lexicon.from_data)
    f = syntax.english_to_formula(args.sentence, args.reading, lex)
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = (_read_json(args.config, "config", lambda data: Config(**data))
                  if args.config else Config())
        return args.fn(args, config)
    except (_CliError, solver.SolverError, syntax.EnglishError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
