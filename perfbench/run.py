"""The relsyl benchmark: one workload, one seed, one client, closed loop.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 20 --trace 0

Run from the root of a relsyl checkout.  See perfbench/README.md for the
workloads, the metrics and the traced run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only when every output was right.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("refute", "witness", "check")
SETUP_RUNS = 5            # fresh processes whose set-up times give setup_s
# p99.9 would need 10,000 ops, a count that runs of these workloads reach
# on some machines and miss on others, so the tail is p99 from 1,000 ops up.
TAIL_LEVELS = (99.0, 90.0)
WARMUP_S = 1.0           # untimed ops before the timed phase


def _pin_hash_seed() -> None:
    """Re-run under a fixed hash seed unless already pinned.

    ``relsyl.gen`` draws terms while iterating over frozensets of variable
    names, whose order follows the per-process string hash, so without a
    pinned hash seed the same --seed would give other inputs in every
    process.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_relsyl():
    if not os.path.isfile(os.path.join(SRC, "relsyl", "__init__.py")):
        _fail(f"no relsyl sources under {SRC}; run from the root of a relsyl checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import relsyl
    if os.path.dirname(os.path.abspath(relsyl.__file__)) != os.path.join(SRC, "relsyl"):
        _fail(f"imported relsyl from {relsyl.__file__}, not from {SRC}")


def setup(workload: str, seed: int):
    """Import relsyl, build the corpus and generate the seeded inputs.

    The set-up time is scaled to the reference speed by kernel samples
    taken right after it (see speed.py).
    """
    _import_relsyl()
    from relsyl import corpus
    t = time.perf_counter()
    corpus.paper_corpus()
    corpus_s = time.perf_counter() - t
    import workloads
    wl = workloads.BUILDERS[workload](seed)
    setup_s = time.perf_counter() - _T0
    setup_s /= speed.probe()
    digest = hashlib.sha256("\n".join(wl.keys()).encode()).hexdigest()[:16]
    return wl, setup_s, corpus_s, digest


class Phase:
    """Outcome of one timed phase: every op's wall time, with kernel samples."""

    def __init__(self):
        self.times: list = []        # wall time of each op, in order
        self.at: list = []           # index of the last kernel sample before each op
        self.pass_start: list = []   # index of the first op of each pass
        self.kernel: list = [speed.sample()]
        self._since_sample = 0.0     # op time since the last kernel sample
        self.by_kind: dict = {}
        self.failed = 0
        self.first_error = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def op_time(self) -> float:
        return sum(self.times)

    def run(self, op, tracer=None) -> None:
        """Run one op, timing it alone.

        The output check and the kernel samples run after the clock stops,
        so the op times add up to the client's wall time less the
        benchmark's own work.
        """
        if tracer is not None:
            tracer.op = self.attempted
        t = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as e:  # an op that raises is counted and the run goes on
            out, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        if err is None:
            try:
                err = op.check(out)
            except Exception as e:
                err = f"output check raised {type(e).__name__}: {e}"
        self.times.append(dt)
        self.at.append(len(self.kernel) - 1)
        self.by_kind.setdefault(op.kind, []).append(dt)
        self._since_sample += dt
        if self._since_sample >= speed.INTERVAL_S:
            self.kernel.append(speed.sample())
            self._since_sample = 0.0
        if err is not None:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{op.kind} [{op.key[:160]}]: {err}"

    def run_pass(self, ops, tracer=None) -> None:
        self.pass_start.append(self.attempted)
        for op in ops:
            self.run(op, tracer)

    def scaled(self) -> list:
        """Each op's time at the reference speed (see speed.py)."""
        factors = speed.window_factors(self.kernel)
        return [dt / factors[k] for dt, k in zip(self.times, self.at)]


def warm_up(wl, seconds: float) -> Phase:
    """Run the first ops of pass 0 for `seconds`; checked but not timed."""
    ph = Phase()
    start = time.perf_counter()
    for op in wl.pass_ops(0):
        if time.perf_counter() - start >= seconds:
            break
        ph.run(op)
    return ph


def timed_phase(wl, seconds: float, tracer=None):
    """Run whole passes until `seconds` have gone by.

    With a tracer, every pass runs twice in a row, untraced and then
    traced, so that the two halves see the same inputs and the same
    machine conditions; both halves share the time.
    """
    plain = Phase()
    traced = Phase() if tracer is not None else None
    start = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - start < seconds:
        ops = wl.pass_ops(p)
        plain.run_pass(ops)
        if tracer is not None:
            tracer.install()
            try:
                traced.run_pass(ops, tracer)
            finally:
                tracer.uninstall()
        p += 1
    return plain, traced


def tail_level(n: int) -> float:
    """The highest percentile of TAIL_LEVELS with ten samples beyond it."""
    return next((lv for lv in TAIL_LEVELS if n * (1 - lv / 100) >= 10), 50.0)


def percentile(xs: list, level: float) -> float:
    xs = sorted(xs)
    pos = level / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def report_passes(ph: Phase, scaled: list) -> None:
    print("per pass (speed: kernel time over the reference; scaled = wall / speed):")
    print(f"{'pass':>4}{'ops':>6}{'speed':>8}{'wall p50':>10}{'scaled p50':>12}")
    bounds = ph.pass_start + [ph.attempted]
    for i in range(len(ph.pass_start)):
        lo, hi = bounds[i], bounds[i + 1]
        ks = ph.kernel[ph.at[lo]:ph.at[hi - 1] + 1]
        print(f"{i:>4}{hi - lo:>6}{speed.factor(ks):>8.3f}"
              f"{statistics.median(ph.times[lo:hi]) * 1e3:>10.4f}"
              f"{statistics.median(scaled[lo:hi]) * 1e3:>12.4f}")


def setup_probes(args, first: float, digest: str) -> list:
    times = [first]
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["digest"] != digest:
            _fail(f"set-up probe generated other inputs ({probe['digest']} != {digest})")
        times.append(probe["setup_s"])
    return times


def report_phase(ph: Phase) -> None:
    print(f"{'kind':<12}{'ops':>8}{'p50 ms':>10}{'max ms':>10}{'total s':>10}")
    for kind, xs in sorted(ph.by_kind.items()):
        print(f"{kind:<12}{len(xs):>8}{statistics.median(xs) * 1e3:>10.3f}"
              f"{max(xs) * 1e3:>10.1f}{sum(xs):>10.3f}")
    print(f"passes {len(ph.pass_start)}, op time {ph.op_time:.3f} s, "
          f"attempted {ph.attempted}, failed {ph.failed}")
    if ph.first_error:
        print(f"first failure: {ph.first_error}")


def main() -> int:
    _pin_hash_seed()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    wl, setup_s, corpus_s, digest = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "digest": digest}))
        return 0

    import reference
    reference.self_test()
    # The generated inputs live as long as the run; keep the collector from
    # rescanning them, so that ops pay only for the garbage relsyl makes.
    gc.collect()
    gc.freeze()
    print(f"workload {args.workload}, seed {args.seed}, inputs digest {digest}")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    warm = warm_up(wl, WARMUP_S)
    print(f"warm-up: {warm.attempted} ops, failed {warm.failed}")
    ph, traced = timed_phase(wl, args.seconds, tracer)
    print("untraced passes:")
    report_phase(ph)
    phases = [warm, ph]

    if args.trace:
        print("traced passes:")
        report_phase(traced)
        phases.append(traced)
        overhead = traced.op_time / ph.op_time
        metrics = tracing.layer_metrics(tracer.spans, traced.op_time, overhead, corpus_s)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path)}")
        result = {name: {"value": value, "unit": tracing.unit_of(name)}
                  for name, value in metrics.items()}
    else:
        setups = setup_probes(args, setup_s, digest)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        scaled = ph.scaled()
        report_passes(ph, scaled)
        level = tail_level(len(scaled))
        ok = ph.attempted - ph.failed
        print(f"latency_tail_ms is p{level:g} over {ph.attempted} ops")
        print(f"fail_ratio {ph.failed / ph.attempted:.6f}")
        result = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ok / sum(scaled), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": percentile(scaled, level) * 1e3, "unit": "ms"},
            "correct_ratio": {"value": ok / ph.attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    for name, m in result.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
