"""Record one benchmark run of every workload as BENCH_<number>.json.

    python3 bench/record.py --number N --seed 6161

Run from the root of a relsyl checkout.  For each workload it runs
``perfbench/run.py --trace 0`` once with the given seed for SECONDS
seconds, keeps the JSON object on the run's last line of output, with the
inputs digest that the run prints as ``digest`` (two records that show one
digest for a workload ran the same inputs), and adds the line counts of
``src/relsyl/*.py`` (what ``wc -l`` prints).  It runs every workload once
more at FIXED_SEED and stores those runs under ``fixed_seed``, so that
successive records also compare the same inputs.  Last it runs the Tier-1
test command once (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) and stores its wall time and its counts
of passed and failed tests under ``tier1``.  Under ``corpus_bound4`` it
keeps, for each corpus conclusion c, the verdict of ``is_valid(c, 4)``,
its wall time, and ``small_model_bound(Not(c))``: the last domain size
searched when that is below 4 (None: no cap).  ``corpus_build_ms`` is the
best of CORPUS_BUILDS builds of ``paper_corpus()``, its cache cleared
before each.  ``copy_ms`` keeps, for each of COPY_SEEDS, the best of
COPY_RUNS runs of ``choose`` + ``build_copies`` and, separately, of
``verify_contract`` on ``random_preframe(seed, max_points=20,
max_kappa=4)`` (|W| = 180 for both seeds).  ``cli_ms`` keeps, for each
format, the best of CLI_RUNS in-process ``cli.main`` runs of ``sat
--bound 4`` on CLI_SAT, and the best of CLI_COPY_RUNS runs of
``copy-build`` on ``random_preframe(COPY_SEEDS[0], max_points=20,
max_kappa=4)`` written to a temporary file, stdout captured.
``proof_text_ms`` keeps the best of PROOF_RUNS runs of each of
``proof_to_text``, ``proof_from_text`` and ``check_proof`` over the 18
corpus proofs, timed separately.  ``proof_atoms`` counts, summed over the
corpus proofs read back from their texts, the atom (``Leq`` and quantified
atom) occurrences, the distinct atoms of each file, and the distinct atom
objects: machine-independent counts, the last showing how far a file's
lines share their atom nodes.
The record is written to ``BENCH_<number>.json`` at the root of the
checkout, the number naming the change recorded, so the trajectory of the
figures lives in the repository.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("refute", "witness", "check")
# One run length for every record, so that records stay comparable.
SECONDS = 20.0
# One seed for every record, besides the fresh seed that each is given.
FIXED_SEED = 31337
CORPUS_BUILDS = 15
COPY_SEEDS = (1092, 1178)
COPY_RUNS = 15
CLI_SAT = "EE(a,b)[r] & AE(b,c)[s] & !AA(a,c)[r*s] & !(a <= c) & EE(c,c)[-r]"
CLI_RUNS = 15
CLI_COPY_RUNS = 3
PROOF_RUNS = 7


def run_workload(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"record: {workload} run failed (exit {proc.returncode}): "
                 f"{proc.stderr.strip()[-500:]}")
    record = json.loads(lines[-1])
    record["digest"] = re.search(r"inputs digest (\w+)", proc.stdout)[1]
    return record


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    # the last line is pytest's summary, e.g. "2 failed, 466 passed, 1 error in 96.12s"
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word.rstrip("s"): int(n)
              for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", summary)}
    return {"wall_s": round(wall_s, 1), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "errors": counts.get("error", 0),
            "exit": proc.returncode}


def checkout_relsyl():
    """The checkout's own package, as perfbench/run.py imports it."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import relsyl
    return relsyl


def best_ms(run, times: int) -> float:
    best = float("inf")
    for _ in range(times):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return round(best * 1000, 2)


def corpus_build_ms() -> float:
    paper_corpus = checkout_relsyl().paper_corpus

    def build():
        paper_corpus.cache_clear()
        paper_corpus()

    return best_ms(build, CORPUS_BUILDS)


def copy_ms() -> dict:
    copying = checkout_relsyl().copying
    rows = {}
    for seed in COPY_SEEDS:
        pre = copying.random_preframe(seed, max_points=20, max_kappa=4)
        built = copying.build_copies(pre, copying.choose(pre))
        rows[str(seed)] = {
            "build": best_ms(lambda: copying.build_copies(pre, copying.choose(pre)), COPY_RUNS),
            "verify": best_ms(lambda: copying.verify_contract(built, pre), COPY_RUNS)}
    return rows


def cli_ms() -> dict:
    relsyl = checkout_relsyl()
    from relsyl import cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(argv))

    pre = relsyl.copying.random_preframe(COPY_SEEDS[0], max_points=20, max_kappa=4)
    with tempfile.TemporaryDirectory() as tmp:
        frame = os.path.join(tmp, "frame.json")
        with open(frame, "w") as fh:
            fh.write(relsyl.copying.preframe_to_json(pre))
        return {fmt: {"sat": best_ms(lambda: run("--format", fmt, "sat", "--bound", "4",
                                                 CLI_SAT), CLI_RUNS),
                      "copy_build": best_ms(lambda: run("--format", fmt, "copy-build", frame),
                                            CLI_COPY_RUNS)}
                for fmt in ("text", "json")}


def proof_text_ms() -> dict:
    relsyl = checkout_relsyl()
    entries = relsyl.paper_corpus()
    texts = [relsyl.proof_to_text(e.proof) for e in entries]
    parsed = [relsyl.proof_from_text(text) for text in texts]
    return {"print": best_ms(lambda: [relsyl.proof_to_text(e.proof) for e in entries],
                             PROOF_RUNS),
            "parse": best_ms(lambda: [relsyl.proof_from_text(text) for text in texts],
                             PROOF_RUNS),
            "check": best_ms(lambda: [relsyl.check_proof(p) for p in parsed], PROOF_RUNS)}


def proof_atoms() -> dict:
    relsyl = checkout_relsyl()
    counts = {"occurrences": 0, "distinct": 0, "objects": 0}
    for entry in relsyl.paper_corpus():
        proof = relsyl.proof_from_text(relsyl.proof_to_text(entry.proof))
        atoms = [n for line in proof.lines for n in relsyl.syntax.nodes(line.formula)
                 if isinstance(n, (relsyl.Leq, relsyl.Atom))]
        counts["occurrences"] += len(atoms)
        counts["distinct"] += len(set(atoms))
        counts["objects"] += len({id(n) for n in atoms})
    return counts


def corpus_bound4() -> dict:
    relsyl = checkout_relsyl()
    rows = {}
    for entry in relsyl.paper_corpus():
        start = time.perf_counter()
        verdict = relsyl.is_valid(entry.conclusion, 4)
        wall_ms = (time.perf_counter() - start) * 1000
        rows[entry.name] = {"verdict": type(verdict).__name__,
                            "small_model_bound": relsyl.small_model_bound(
                                relsyl.Not(entry.conclusion)),
                            "ms": round(wall_ms, 2)}
    return rows


def line_counts() -> dict:
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "relsyl", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.relpath(path, ROOT)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", type=int, required=True,
                    help="the number of the recorded change, used in the file name")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    record = {
        "seed": args.seed,
        "seconds": SECONDS,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workloads": {w: run_workload(w, args.seed) for w in WORKLOADS},
        "fixed_seed": {"seed": FIXED_SEED,
                       "workloads": {w: run_workload(w, FIXED_SEED) for w in WORKLOADS}},
        "corpus_bound4": corpus_bound4(),
        "corpus_build_ms": corpus_build_ms(),
        "copy_ms": copy_ms(),
        "cli_ms": cli_ms(),
        "proof_text_ms": proof_text_ms(),
        "proof_atoms": proof_atoms(),
        "wc_l": line_counts(),
        "tier1": run_tier1(),
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    runs = [*record["workloads"].values(), *record["fixed_seed"]["workloads"].values()]
    return 0 if all(r["correct"] for r in runs) and record["tier1"]["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
