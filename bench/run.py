"""End-to-end benchmark of the kech CLI, with an optional traced run.

Usage (from the repository root):

    python3 bench/run.py --workload complex|capacities|gromov|all \
        --seed N --seconds S --trace 0|1

Each operation is one `kech` command in a fresh interpreter, as a user runs
it: a closed loop with one client and one child process at a time.  The
workload's operations are drawn once from the seed and then repeated, round
after round, until --seconds have passed; every output is checked each time.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
rounds with rounds run through bench/tracer.py and reports the per-layer
metrics plus the tracing overhead.  The last line of stdout is one JSON
object; the lines above it name every metric with its unit, each
operation's stdout sha256 and the host.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import workloads
from tracer import PREFIX as TRACE_PREFIX

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# What the installed `kech` script runs, plus one line on stderr at exit with
# the process's own peak RSS.  VmHWM covers only the memory the command used:
# a child's ru_maxrss from wait4 would also include the parent's RSS at the
# time of the fork (or its peak, when subprocess uses vfork).
KECH_MAIN = """import sys
from kech.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(l for l in status if l.startswith("VmHWM:")))
sys.exit(code)
"""
PEAK_RSS = re.compile(rb"^VmHWM:\s*(\d+) kB$", re.MULTILINE)
# A run must end within 180 s: no operation starts, and none is left running,
# later than this many seconds after its workload began.
RUN_BUDGET_S = 165.0
# Spans of each operation's last traced run, as [name, start, end, parent].
TRACE_DIR = ".bench_trace"


@dataclass
class Child:
    """Outcome of one child process: exit code, output and time."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float


def spawn(argv, env, timeout):
    """Run argv to completion, timed from spawn to exit; killed after timeout."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return Child(proc.returncode, out, err, perf_counter() - start)


def child_env(root):
    """The caller's environment with kech's own settings removed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("KECH_CACHE", "KECH_THREADS", "KECH_TOLERANCE",
                        "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def calibrate():
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return perf_counter() - start


def host():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": model}


# ---------------------------------------------------------------------------
# Per-layer metrics from the tracer's reports

LAYER_METRICS = [
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("census.scan_s", "s"), ("census.scans", "count"),
    ("census.generators", "count"), ("census.us_per_generator", "us"),
    ("diff.differential_s", "s"), ("diff.calls", "count"),
    ("diff.terms", "count"), ("diff.distinct_ratio", "ratio"),
    ("paths.validate_s", "s"), ("paths.validate_calls", "count"),
    ("paths.region_points_s", "s"), ("paths.region_points_calls", "count"),
    ("homology.rank_s", "s"), ("homology.rank_columns", "count"),
    ("homology.rank", "count"),
    ("spectrum.search_s", "s"), ("spectrum.scan_passes", "count"),
    ("spectrum.emits", "count"),
    ("toric.capacity_s", "s"), ("toric.capacity_calls", "count"),
    ("toric.admissible_s", "s"), ("toric.admissible_calls", "count"),
    ("toric.obstruct_s", "s"), ("toric.factorizations", "count"),
    ("trace.overhead_s", "s"),
]


def flatten(report):
    """One tracer report as {"busy:group": s, "calls:group": n, ...}."""
    return {kind + ":" + key: value
            for kind in ("busy", "calls", "counts", "distinct")
            for key, value in report[kind].items()}


def layer_values(total):
    """Per-layer metrics from busy times, calls and counters summed over ops."""
    def get(key):
        return total.get(key, 0)

    scan_s = get("busy:census.scan")
    generators = get("counts:census.generators")
    diff_calls = get("calls:diff.differential")
    return {
        "cli.self_s": get("counts:cli.self_s"),
        "cli.output_bytes": get("counts:cli.output_bytes"),
        "census.scan_s": scan_s,
        "census.scans": get("counts:census.scans"),
        "census.generators": generators,
        "census.us_per_generator": 1e6 * scan_s / generators if generators else 0.0,
        "diff.differential_s": get("busy:diff.differential"),
        "diff.calls": diff_calls,
        "diff.terms": get("counts:diff.terms"),
        "diff.distinct_ratio": (get("distinct:diff.differential") / diff_calls
                                if diff_calls else 0.0),
        "paths.validate_s": get("busy:paths.validate"),
        "paths.validate_calls": get("calls:paths.validate"),
        "paths.region_points_s": get("busy:paths.region_points"),
        "paths.region_points_calls": get("calls:paths.region_points"),
        "homology.rank_s": get("busy:homology.rank"),
        "homology.rank_columns": get("counts:homology.rank_columns"),
        "homology.rank": get("counts:homology.rank"),
        "spectrum.search_s": get("busy:spectrum.search"),
        "spectrum.scan_passes": get("counts:spectrum.scan_passes"),
        "spectrum.emits": get("counts:spectrum.emits"),
        "toric.capacity_s": get("busy:toric.capacity"),
        "toric.capacity_calls": get("calls:toric.capacity"),
        "toric.admissible_s": get("busy:toric.admissible"),
        "toric.admissible_calls": get("calls:toric.admissible"),
        "toric.obstruct_s": get("busy:toric.obstruct"),
        "toric.factorizations": get("counts:toric.factorizations"),
    }


# ---------------------------------------------------------------------------
# Running a workload


class Run:
    """Every operation of one workload in one run, repeated until the deadline."""

    def __init__(self, name, ops, env, deadline, give_up):
        self.name = name
        self.ops = ops
        self.env = env
        self.deadline = deadline
        self.give_up = give_up
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.walls = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.reports = [[] for _ in ops]
        self.spans = [[] for _ in ops]
        self.digests = [set() for _ in ops]
        self.rss = []
        self.setup = []

    def step(self, i, traced, context):
        """Run and check operation i once; False if the run's budget ran out."""
        op = self.ops[i]
        remaining = self.give_up - perf_counter()
        if remaining <= 0:
            return False
        argv = ([sys.executable, os.path.join(BENCH_DIR, "tracer.py")]
                if traced else [sys.executable, "-c", KECH_MAIN]) + op.args
        child = spawn(argv, self.env, remaining)
        self.attempted += 1
        self.walls[traced][i].append(child.wall_s)
        problem = None
        if child.code != 0:
            problem = "exit code %d: %s" % (
                child.code, child.stderr.decode(errors="replace")[-300:])
        else:
            try:
                op.check(child.stdout.decode(), context)
            except Exception as exc:  # any malformed output is a failure
                problem = "wrong output: %r" % exc
        if not traced:
            peaks = PEAK_RSS.findall(child.stderr)
            if peaks:
                self.rss.append(int(peaks[-1]) / 1024.0)
            elif problem is None:
                problem = "no peak RSS reported"
        self.digests[i].add(hashlib.sha256(child.stdout).hexdigest())
        if problem is None and len(self.digests[i]) > 1:
            problem = "output differs between rounds"
        if traced and problem is None:
            try:
                report = json.loads(
                    child.stderr.decode(errors="replace").rsplit(TRACE_PREFIX, 1)[1])
            except (IndexError, ValueError):
                problem = "no trace report"
            else:
                flat = flatten(report)
                flat["counts:cli.output_bytes"] = len(child.stdout)
                self.reports[i].append(flat)
                self.spans[i] = report["spans"]
        if problem is not None:
            self.failed += 1
            self.errors.append("%s %s: %s" % (self.name, op.label, problem))
        return True

    def setup_sample(self):
        """Time a fresh interpreter importing kech.cli; kept if it succeeds."""
        child = spawn([sys.executable, "-c", "import kech.cli"], self.env,
                      max(1.0, self.give_up - perf_counter()))
        if child.code == 0:
            self.setup.append(child.wall_s)

    def run(self, trace):
        """Rounds of every operation until the deadline.

        The run stops at the first operation boundary past the deadline at
        which every operation has been timed at least once (traced and
        untraced, when tracing).  Without tracing, one set-up sample follows
        each operation, so the set-up samples span the whole run.
        """
        kinds = (False, True) if trace else (False,)
        self.setup_sample()  # writes the bytecode cache; not counted
        self.setup.clear()
        for n in itertools.count():
            traced = kinds[n % len(kinds)]
            context = {}
            for i in range(len(self.ops)):
                if perf_counter() >= self.deadline and self.covered(trace):
                    return
                if not self.step(i, traced, context):
                    return
                if not trace:
                    self.setup_sample()

    def covered(self, trace):
        """Every operation timed untraced and, when tracing, traced."""
        return all(self.walls[False]) and (not trace or all(self.walls[True]))

    def complete(self, trace):
        if trace:
            return self.covered(trace) and all(self.reports)
        return self.covered(trace) and bool(self.setup)

    def wall_s(self, traced):
        """Sum over operations of each one's median time across rounds."""
        return sum(statistics.median(w) for w in self.walls[traced])

    def layers(self):
        """Per-layer metrics: each raw figure is a per-operation median, summed.

        Counts are integers and repeat exactly, so they take the low median
        and stay integers.
        """
        total = {}
        for samples in self.reports:
            for key in set().union(*samples):
                values = [s.get(key, 0) for s in samples]
                median = (statistics.median_low
                          if all(isinstance(v, int) for v in values)
                          else statistics.median)
                total[key] = total.get(key, 0) + median(values)
        values = layer_values(total)
        values["trace.overhead_s"] = self.wall_s(True) - self.wall_s(False)
        return values


def run_workload(name, seed, seconds, trace, env):
    """(attempted, failed, metrics) of one workload, after printing details."""
    give_up = perf_counter() + RUN_BUDGET_S
    ops = workloads.WORKLOADS[name](random.Random(seed))
    run = Run(name, ops, env, perf_counter() + seconds, give_up)
    run.run(trace)

    for i, op in enumerate(ops):
        walls = run.walls[False][i]
        print("op %-10s %-20s %s  median %.3f s min %.3f max %.3f over %d  %s" % (
            name, op.label, ",".join(sorted(run.digests[i])) or "-",
            statistics.median(walls) if walls else float("nan"),
            min(walls, default=float("nan")), max(walls, default=float("nan")),
            len(walls), " ".join(op.args)))
    for err in run.errors:
        print("FAILED " + err)

    if not run.complete(trace):
        print("FAILED %s: run budget exhausted before every operation ran" % name)
        return max(run.attempted, 1), max(run.failed, 1), {}
    if trace:
        units = dict(LAYER_METRICS)
        metrics = {key: (value, units[key]) for key, value in run.layers().items()}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, name + ".json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([{"op": op.label, "args": op.args, "spans": spans}
                       for op, spans in zip(ops, run.spans)], fh)
        print("%s: spans of the last traced round written to %s" % (name, path))
    else:
        metrics = {
            "wall_s": (run.wall_s(False), "s"),
            "setup_s": (statistics.median(run.setup), "s"),
            "peak_rss_mib": (max(run.rss, default=0.0), "MiB"),
        }
    print("%s: failed_share %.4f (%d of %d operations)"
          % (name, run.failed / run.attempted, run.failed, run.attempted))
    for key, (value, unit) in metrics.items():
        print("%s: %s %.6g %s" % (name, key, value, unit))
    return run.attempted, run.failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kech", "cli.py")):
        print("error: run from the repository root; src/kech/cli.py not found",
              file=sys.stderr)
        return 2
    env = child_env(root)
    info = host()
    print("host: python %s, nproc %d, cpu %s, calibration %.4f s"
          % (info["python"], info["nproc"], info["cpu"], calibrate()))

    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               env)
        attempted += a
        failed += f
        prefix = name + "." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
