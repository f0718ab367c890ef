"""Span recording around the public functions of each relsyl module.

Nothing inside ``src/relsyl`` changes: ``Tracer.install`` replaces each
traced function, wherever a relsyl module holds a reference to it, with a
wrapper that records (name, start, end, parent span, op id, tag), and
``uninstall`` puts the originals back.  A function that is already on the
span stack calls straight through, so a recursive entry point such as
``eval_formula`` or ``print_formula`` records only its outermost call.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time


def _domain_size(m, *_args, **_kw):
    return len(m.domain)


def _copy_pairs(pre, *_args, **_kw):
    return (len(pre.points) * (2 * pre.kappa + 1)) ** 2


# module -> {public function: tag function of its arguments, or None}
TRACED = {
    "cli": {"main": None},
    "syntax": {"parse_formula": None, "print_formula": None},
    "semantics": {"eval_formula": _domain_size, "model_to_json": None},
    "bml": {"translate": None, "eval_bml": _domain_size},
    "proofs": {"proof_from_text": None, "check_proof": None, "check_tautology": None,
               "match_axiom": None, "check_rule": None},
    "solver": {"is_sat": None, "minimize_model": None},
    "copying": {"choose": None, "build_copies": _copy_pairs, "verify_contract": None},
}

NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []       # indices of open spans
        self._open: set = set()      # names of open spans
        self._patched: list = []     # (module, attribute, original)

    def _wrap(self, name: str, fn, tag):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    tag(*args, **kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            open_names.add(name)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_names.discard(name)
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "relsyl" or key.startswith("relsyl.")]
        for short, functions in TRACED.items():
            home = sys.modules[f"relsyl.{short}"]
            for fname, tag in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, tag)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": self.spans}, fh)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: list, op_time_s: float, overhead: float,
                  corpus_s: float) -> dict:
    """Per-layer numbers from one traced phase; see BENCHMARK.json."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_name: dict = {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        by_name.setdefault(s[NAME], []).append((dur, dur - child[i], s[PARENT], s[TAG]))

    def durs(name, top_level_w=None):
        rows = by_name.get(name, [])
        if top_level_w is not None:
            rows = [r for r in rows if r[2] < 0 and r[3] == top_level_w]
        return [r[0] for r in rows]

    def self_total(name):
        return sum(r[1] for r in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    build = by_name.get("copying.build_copies", [])
    build_s = sum(r[0] for r in build)
    check_proof_s = sum(durs("proofs.check_proof"))
    m = {
        "cli.main.self_ms": _median([r[1] for r in by_name.get("cli.main", [])]) * 1e3,
        "syntax.parse_formula.us": _median(durs("syntax.parse_formula")) * 1e6,
        "syntax.print_formula.us": _median(durs("syntax.print_formula")) * 1e6,
        "solver.is_sat.calls": calls("solver.is_sat"),
        "solver.is_sat.self_s": self_total("solver.is_sat"),
        "solver.is_sat.ms": _median(durs("solver.is_sat")) * 1e3,
        "solver.share": self_total("solver.is_sat") / op_time_s if op_time_s else 0.0,
        "solver.minimize_model.ms": _median(durs("solver.minimize_model")) * 1e3,
        "semantics.eval_formula.calls": calls("semantics.eval_formula"),
        "semantics.model_to_json.us": _median(durs("semantics.model_to_json")) * 1e6,
        "bml.translate.us": _median(durs("bml.translate")) * 1e6,
        "bml.eval_bml.calls": calls("bml.eval_bml"),
        "proofs.proof_from_text.ms": _median(durs("proofs.proof_from_text")) * 1e3,
        "proofs.check_proof.ms": _median(durs("proofs.check_proof")) * 1e3,
        "proofs.check_tautology.calls": calls("proofs.check_tautology"),
        "proofs.check_tautology.self_s": self_total("proofs.check_tautology"),
        "proofs.match_axiom.self_s": self_total("proofs.match_axiom"),
        "proofs.check_rule.self_s": self_total("proofs.check_rule"),
        "proofs.taut_share": (sum(durs("proofs.check_tautology")) / check_proof_s
                              if check_proof_s else 0.0),
        "copying.choose.ms": _median(durs("copying.choose")) * 1e3,
        "copying.build_copies.ms": _median(durs("copying.build_copies")) * 1e3,
        "copying.verify_contract.ms": _median(durs("copying.verify_contract")) * 1e3,
        "copying.pairs_per_s": sum(r[3] for r in build) / build_s if build_s else 0.0,
        "corpus.paper_corpus.s": corpus_s,
        "trace.overhead": overhead,
    }
    for w in (4, 16, 50):
        m[f"semantics.eval_formula.us.w{w}"] = _median(durs("semantics.eval_formula", w)) * 1e6
        m[f"bml.eval_bml.us.w{w}"] = _median(durs("bml.eval_bml", w)) * 1e6
    return m


UNITS = {"calls": "count", "self_s": "s", "s": "s", "ms": "ms", "us": "us",
         "share": "fraction", "taut_share": "fraction", "overhead": "ratio",
         "self_ms": "ms", "pairs_per_s": "1/s"}


def unit_of(metric: str) -> str:
    parts = metric.split(".")
    for part in reversed(parts):
        if part in UNITS:
            return UNITS[part]
    raise KeyError(metric)
