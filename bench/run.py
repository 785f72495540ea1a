"""kanforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kanforge is imported from its
`src/` directory, in this single process and thread.  The loop is
closed: one caller issues the next operation only after the previous one
returns, pass after pass over the workload's operation list, for as many
whole passes as fit in S seconds (at least one).  Every result is
checked against expected.json.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, whose times are adjusted for
drift in host speed (hostclock.py):
  setup_s      median of five set-ups: a fresh import of kanforge plus
               building or writing the workload's inputs
  wall_s       median time of one pass over the operation list
  op_p50_ms    50th and 90th percentile (Harrell-Davis) over the
  op_p90_ms    operations of each one's median latency over the passes
               and corpus copies
  peak_rss_mb  peak resident memory of this process (ru_maxrss)
The lines before give fail_ratio (failed / attempted), the raw pass
times and the environment.

--trace 1 alternates untraced and traced passes for S seconds (at least
one of each) and reports per-layer metrics (tracing.py), each the median
over the traced passes; its times are raw, and trace.overhead_s is the
traced minus the untraced median pass time.  The spans are written to
.bench_out/.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import hostclock
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
HASH_SEED = "0"
MODULES = ("acceptance", "catalg", "cli", "determinants", "examples",
           "nerves", "serialize", "simplicial")


class Kanforge:
    """The kanforge submodules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "kanforge" or m.startswith("kanforge.")]:
            del sys.modules[name]
        importlib.import_module("kanforge")
        for name in MODULES:
            setattr(self, name, importlib.import_module("kanforge." + name))


def git_rev():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


class Passes:
    """The outcome of closed-loop passes: per pass the host-speed-adjusted
    and the raw time spent in operations, the adjusted latency of each
    operation and the number of failed operations."""

    def __init__(self):
        self.walls, self.raw_walls, self.lats, self.failures = [], [], [], []

    def extend(self, other):
        for name in ("walls", "raw_walls", "lats", "failures"):
            getattr(self, name).extend(getattr(other, name))


def quantile(values, q):
    """The Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.  The
    latencies of the operations have wide gaps between neighbours (in
    cli-corpus 75 ms, then 84 to 120 ms at the 90th percentile), where the
    usual estimate from one or two order statistics jumps with small
    changes of input order; this one moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300

    def clamp(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def run_passes(ops, expected, seconds, call, clock):
    """Closed-loop passes over the operation list until another pass would
    end after `seconds` (always at least one).  Garbage is collected
    before each operation, outside its timing, so that no operation pays
    for the garbage of another."""
    out = Passes()
    start = time.perf_counter()
    while True:
        raws, times, raw_wall = [], [], 0.0
        for op in ops:
            gc.collect()
            mark = clock.mark()
            try:
                raw = call(op)
            except Exception as exc:  # a raising operation counts as failed
                raw = exc
            elapsed, adjusted = clock.since(mark)
            raw_wall += elapsed
            times.append(adjusted)
            raws.append(raw)
        out.walls.append(sum(times))
        out.raw_walls.append(raw_wall)
        out.lats.append(times)
        out.failures.append(check(ops, raws, expected))
        spent = time.perf_counter() - start
        if spent + spent / len(out.walls) > seconds:
            return out


def check(ops, raws, expected):
    """Number of operations of one pass whose result differs from the
    expected value; each mismatch is reported on standard error."""
    failed = 0
    for op, raw in zip(ops, raws):
        want = expected.get(op.key)
        if isinstance(raw, Exception):
            got = "raised %s: %s" % (type(raw).__name__, raw)
        else:
            try:
                got = op.observe(raw)
            except (ValueError, KeyError, OSError, TypeError) as exc:
                got = "unreadable result: %s" % exc
        if got != want:
            failed += 1
            print("mismatch %s: got %s, expected %s" % (op.key, got, want),
                  file=sys.stderr)
    return failed


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashes order the program's sets and so its searches; pin
        # them, so that runs differ only by what --seed makes
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if "KANFORGE_BUDGET" in os.environ:
        # a malformed value is silently ignored by the program, and any
        # value changes which searches run to completion
        sys.exit("error: KANFORGE_BUDGET must be unset for the benchmark")
    if not os.path.isfile(os.path.join(SRC, "kanforge", "__init__.py")):
        sys.exit("error: no kanforge sources under %s" % SRC)
    sys.path.insert(0, SRC)
    expected = load_expected()

    spin = hostclock.spin()
    clock = hostclock.HostClock()
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    try:
        if not args.trace:
            clock.start()
        setups = []
        for _ in range(SETUP_REPEATS):
            mark = clock.mark()
            kf = Kanforge()
            ops = workloads.setup(kf, args.workload, args.seed, workdir)
            setups.append(clock.since(mark)[1])
        if args.trace:
            metrics, passes = traced_run(kf, ops, expected, args, spin)
        else:
            metrics, passes = plain_run(kf, ops, expected, args, setups,
                                        clock)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(passes.walls)
    failed = sum(passes.failures)
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "git_rev": git_rev(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "pythonhashseed": os.environ["PYTHONHASHSEED"],
            "host.spin_s": spin, "host.kernel_s": clock.median_sample(),
            "pass_s": passes.walls, "raw_pass_s": passes.raw_walls,
            "ops_per_pass": len(ops), "fail_ratio": failed / attempted}
    print(json.dumps({"info": info}, sort_keys=True))
    if args.trace == 0:
        for name, m in metrics.items():
            print("%-12s %12.4f %s" % (name, m["value"], m["unit"]))
        print("%-12s %12.4f %s" % ("raw wall_s",
                                   statistics.median(passes.raw_walls), "s"))
        print("%-12s %12.4f %s" % ("fail_ratio", info["fail_ratio"], "ratio"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def plain_run(kf, ops, expected, args, setups, clock):
    passes = run_passes(ops, expected, args.seconds, lambda op: op.call(kf),
                        clock)
    # an operation's latency is its median over the passes and, in
    # cli-corpus, the corpus copies: then which operations sit at a
    # percentile depends neither on the pass count nor on one input order
    samples = {}
    for times in passes.lats:
        for op, t in zip(ops, times):
            samples.setdefault(op.key, []).append(1000 * t)
    ms = [statistics.median(v) for v in samples.values()]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(passes.walls), "unit": "s"},
        "op_p50_ms": {"value": quantile(ms, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": quantile(ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, passes


def traced_run(kf, ops, expected, args, spin):
    """Untraced and traced passes alternate, so that drift in host speed
    affects both alike.  The host clock is not sampled here: every time is
    raw, like the spans."""
    tracer = tracing.Tracer(kf)
    clock = hostclock.HostClock()
    plain, traced = Passes(), Passes()
    start = time.perf_counter()
    while True:
        plain.extend(run_passes(ops, expected, 0, lambda op: op.call(kf),
                                clock))
        tracer.install()
        try:
            traced.extend(run_passes(ops, expected, 0, tracer.call, clock))
        finally:
            tracer.uninstall()
        tracer.end_pass()
        spent = time.perf_counter() - start
        if spent + spent / len(traced.walls) > args.seconds:
            break
    metrics = {}
    for name, unit in tracing.metric_units().items():
        metrics[name] = {"unit": unit, "value": statistics.median(
            p[name] for p in tracer.passes)}
    metrics["host.spin_s"]["value"] = spin
    metrics["trace.wall_s"]["value"] = statistics.median(traced.walls)
    metrics["trace.overhead_s"]["value"] = \
        statistics.median(traced.walls) - statistics.median(plain.walls)
    write_spans(tracer.spans, args)
    plain.extend(traced)
    return metrics, plain


def write_spans(spans, args):
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "spans-%s-seed%d.jsonl"
                        % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
