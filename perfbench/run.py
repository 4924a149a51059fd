"""Solver benchmark for spark_branch.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, measures set-up in fresh
interpreters, runs passes for S seconds, checks every result, and prints
one JSON object as the last line of standard output.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced
cycles of passes alternate and the metrics are the per-layer ones.
README.md next to this file records the design.
"""

import os

# One thread everywhere, before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# pass_s_tail is this nearest-rank percentile of the run's pass times,
# chosen per workload so that at least ten passes lie beyond it in a
# 20-second run on the reference machine, also when that machine runs 20%
# slow (see README.md).
TAIL_PERCENTILE = {"trace-coarse": 55, "trace-fine": 78, "sweep": 92,
                   "checks": 93}
# A run takes at least this many passes even when the deadline comes
# first, so that the trace-coarse tail keeps ten passes beyond it on a
# slow machine.
MIN_PASSES = 24
# Self times must account for this share of traced pass time, or the
# span set misses a layer that matters.
MIN_COVERAGE = 0.9


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def load_package():
    src = ROOT / "src"
    pkg = src / "spark_branch"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no spark_branch sources under {src}")
    sys.path.insert(0, str(src))
    import spark_branch
    # Import every module that the traced run rebinds in.
    import spark_branch.cli  # noqa: F401
    import spark_branch.validation  # noqa: F401
    if Path(spark_branch.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported spark_branch from {spark_branch.__file__}"
                         f", not from {pkg}")
    return spark_branch


def measure_setup(n):
    """Median over fresh interpreters of start -> import -> grid -> warm
    residual and Jacobian."""
    times = []
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(ROOT),
           str(n)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe timed out")
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(
                f"set-up probe failed with code {proc.returncode}")
        times.append(t1 - t0)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted, errors):
        self.attempted += attempted
        self.failed += len(errors)
        self.errors += errors[:max(0, 5 - len(self.errors))]


def timed_pass(sb, wl, inputs, i, tally):
    t0 = time.perf_counter()
    result = wl.run_pass(sb, inputs, i)
    dt = time.perf_counter() - t0
    tally.add(*wl.check(sb, inputs, i, result))
    return dt


def nearest_rank(values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, traced_times, plain_times, tally):
    """Per-pass layer counts and self times plus the derived ratios."""
    recs = tracer.spans
    own = spans.self_times(recs)
    passes = len(traced_times)
    calls, self_s = Counter(), Counter()
    for rec, o in zip(recs, own):
        calls[rec[0]] += 1
        self_s[rec[0]] += o
    m = {}
    for name in spans.SPAN_NAMES:
        m[f"{name}.calls"] = (calls[name] / passes, "count")
        m[f"{name}.self_ms"] = (1e3 * self_s[name] / passes, "ms")

    def children(parent, child):
        parents = {i for i, rec in enumerate(recs) if rec[0] == parent}
        return sum(1 for rec in recs if rec[0] == child and rec[3] in parents)

    def ratio(a, b):
        return a / b if b else 0.0

    accepted = sum(1 for rec in recs
                   if rec[0] == "continuation.arclength_step" and rec[4])
    iters = children("steady.newton_solve", "steady.jacobian")
    m["factor.lu_nnz"] = (ratio(tracer.lu_nnz, calls[spans.SPLU]), "count")
    m["continuation.accept_ratio"] = (
        ratio(accepted, calls["steady.newton_solve"]), "ratio")
    m["steady.newton_iters_per_point"] = (ratio(iters, accepted), "1/point")
    m["steady.jacobian.per_point"] = (
        ratio(calls["steady.jacobian"], accepted), "1/point")
    m["factor.splu.per_point"] = (ratio(calls[spans.SPLU], accepted),
                                  "1/point")
    m["steady.residual_vector.per_iter"] = (
        ratio(children("steady.newton_solve", "steady.residual_vector"),
              iters), "1/iter")
    m["electron.solve_electron.per_root"] = (
        ratio(children("electron.sparking_voltage", "electron.solve_electron"),
              calls["electron.sparking_voltage"]), "1/root")
    m["trace.tracing_overhead"] = (
        statistics.median(traced_times) / statistics.median(plain_times),
        "ratio")
    m["trace.coverage"] = (sum(own) / sum(traced_times), "ratio")
    m["fail_ratio"] = (ratio(tally.failed, tally.attempted), "ratio")
    return m


def environment():
    cache = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                            .glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                cache[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass    # cache sizes are informative only
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "cache": cache}


def run(args):
    sb = load_package()
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    setup_s = measure_setup(wl.grid_n)

    inputs = wl.make_inputs(sb, args.seed, ROOT, OUT_DIR)
    cycle = len(inputs.cases)
    warm = wl.run_pass(sb, inputs, 0)
    tally = Tally()
    plain_times, traced_times = [], []
    tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    # Whole cycles only: every input has the same share of passes, and
    # per-pass layer counts repeat exactly for a seed.
    while len(plain_times) < MIN_PASSES or time.perf_counter() < deadline:
        for i in range(cycle):
            plain_times.append(timed_pass(sb, wl, inputs, i, tally))
        if args.trace:
            with spans.traced(tracer):
                for i in range(cycle):
                    traced_times.append(timed_pass(sb, wl, inputs, i, tally))

    correct = tally.failed == 0
    info = {"workload": args.workload, "seed": args.seed,
            "passes": len(plain_times), "errors": tally.errors}
    if args.trace:
        m = layer_metrics(tracer, traced_times, plain_times, tally)
        coverage = m["trace.coverage"][0]
        if coverage < MIN_COVERAGE:
            correct = False
            info["errors"].append(f"span self times cover {coverage:.3f} "
                                  f"of traced pass time")
        info["traced_passes"] = len(traced_times)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "ok"],
             "spans": tracer.spans}))
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        pct = TAIL_PERCENTILE[args.workload]
        tail, beyond = nearest_rank(plain_times, pct)
        m = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(plain_times), "s"),
            "pass_s_tail": (tail, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        info["tail"] = {"percentile": pct, "samples": len(plain_times),
                        "beyond": beyond}
    info["environment"] = environment()
    if not isinstance(warm, Exception):
        info["working_set"] = wl.working_set(sb, inputs, warm)
    print(json.dumps(info))
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
