"""Benchmark of the saitoforms pipeline, one workload per process.

    python3 bench/run.py --workload unfold-full --seed 1 --seconds 40 --trace 0

Runs whole rounds of the workload's fixed job set in this single-threaded
process until about --seconds seconds after it started, checks every
result, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1. A traced run writes its spans to .bench_build/.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from tracing import NullTracer, Tracer

# A run ends about --seconds after this point: set-up probes, checks and
# rounds all share that time.
START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("unfold-full", "socle-deep", "milnor-zoo")
SETUP_PROBES = 11

# The speed probe's time on the machine of bench/README.md at its quiet
# speed: end-to-end times are given in seconds at that speed.
PROBE_QUIET_S = 0.0018
_PROBE_POLY = {(i, j): Fraction(i + 1, j + 2)
               for i in range(5) for j in range(5)}

# Spans reported as per-layer self time, each as "<span>_s".
LAYER_SPANS = [
    "groebner.buchberger", "singularity.analyze", "singularity.orthogonalize",
    "moduli.report", "brieskorn.reduce", "residue_series.pairing", "cli.job",
    "unfolding.exp_powers", "unfolding.oscillator", "primitive.psi",
    "primitive.neumann", "primitive.verify",
]
COUNTERS = [
    "groebner.basis_size", "singularity.mu", "brieskorn.cache_entries",
    "unfolding.exp_powers_terms", "unfolding.oscillator_terms",
    "unfolding.window_terms", "primitive.record_terms",
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: generate the inputs and exit, for timing set-up.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "saitoforms", "__init__.py")):
        raise SystemExit("bench: no saitoforms sources under %s" % src)
    sys.path.insert(0, src)
    import workloads
    return workloads


def speed_probe():
    """Seconds taken by a fixed piece of pure-Python work like the
    library's own: squaring a sparse polynomial with Fraction
    coefficients in a dict, the fastest of three tries, with the garbage
    collector off. The machine is shared, and its speed drops by up to
    1.7x for a minute at a time when other tenants are busy; a job's time
    over the probe times around it hardly moves with that."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            out = {}
            for ea, ca in _PROBE_POLY.items():
                for eb, cb in _PROBE_POLY.items():
                    e = (ea[0] + eb[0], ea[1] + eb[1])
                    out[e] = out.get(e, 0) + ca * cb
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def at_quiet_speed(samples):
    """Median over (time, probe time) samples of their ratio, in seconds
    at the machine's quiet speed."""
    return statistics.median(t / p for t, p in samples) * PROBE_QUIET_S


def measure_setup(args):
    """Time from starting a fresh interpreter to having the job inputs
    ready: imports plus generating and writing the inputs. The median of
    several probes at quiet speed, as for the jobs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed: %s" % err.strip())
        samples.append((elapsed, (before + speed_probe()) / 2))
    return at_quiet_speed(samples)


class Tally:
    """Checks each job's result and counts attempts and failures.

    The first result of a job gets every check; every later execution
    must repeat it exactly. A failing job with a known fault is a counted failure;
    any other failure makes the run incorrect."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.counted = {}
        self.unexpected = {}

    def record(self, idx, out, error):
        job = self.jobs[idx]
        if error is not None:
            problems = [error]
        elif self.first[idx] is None:
            try:
                problems = job.check(out)
            except Exception as exc:
                problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
            self.first[idx] = (job.signature(out), problems)
        else:
            signature, problems = self.first[idx]
            if job.signature(out) != signature:
                problems = ["result differs from the first round's"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if job.fault:
                self.counted.setdefault(job.name, (job.fault, problems))
            else:
                self.unexpected.setdefault(job.name, problems)


def run_rounds(args, jobs):
    """Whole rounds of the job set, at least two and then as many as end
    within --seconds of the run's start, judging the next round by the
    last. A traced run alternates untraced and traced rounds, at least
    two of each, and ends after a traced one: the untraced ones are the
    base of the tracing overhead, and the counters are compared between
    the traced ones. A speed probe runs before each job and after the
    last; a job's record holds the mean of the two probes around it.

    Returns one record per job execution."""
    tracer = Tracer() if args.trace else None
    tally = Tally(jobs)
    runs = []
    n_rounds = 0
    while True:
        traced = bool(args.trace) and n_rounds % 2 == 1
        tr = tracer if traced else NullTracer()
        round_start = time.perf_counter()
        round_busy = 0.0
        probe = speed_probe()
        for idx, job in enumerate(jobs):
            jid = "%d.%d" % (n_rounds, idx)
            if traced:
                tracer.job = jid
            out = error = None
            t0 = time.perf_counter()
            try:
                out = tr.call("job", job.run, tr)
            except Exception as exc:
                error = "raised %s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - t0
            round_busy += elapsed
            counters = job.counters(out) if traced and out is not None \
                else None
            tally.record(idx, out, error)
            del out
            after = speed_probe()
            runs.append({"job": idx, "id": jid, "traced": traced,
                         "time": elapsed, "probe": (probe + after) / 2,
                         "counters": counters})
            probe = after
        n_rounds += 1
        now = time.perf_counter()
        print("round %d%s: %.4f s" % (n_rounds, " traced" if traced else "",
                                       round_busy), file=sys.stderr)
        if args.trace:
            # The next stop is two rounds on, after the next traced one.
            if traced and n_rounds >= 4 and \
                    now - START + 2 * (now - round_start) > args.seconds:
                return runs, tally, tracer
        elif n_rounds >= 2 and now - START + now - round_start > args.seconds:
            return runs, tally, tracer


def fastest_traced(runs, jobs, key):
    """Per job, the traced execution with the smallest key. Other tenants
    of a shared machine only ever add time, so the fastest execution is
    the steadiest estimate of each layer's own cost."""
    best = [None] * len(jobs)
    for run in runs:
        if run["traced"]:
            i = run["job"]
            if best[i] is None or key(run) < key(best[i]):
                best[i] = run
    return best


def per_job_times(runs, jobs, traced, time_of):
    """Per job, the median of its untraced (or traced) executions at
    quiet speed, each execution's time given by time_of."""
    samples = [[] for _ in jobs]
    for run in runs:
        if run["traced"] == traced:
            samples[run["job"]].append((time_of(run), run["probe"]))
    return [at_quiet_speed(s) for s in samples]


def end_to_end(runs, jobs, setup_s):
    per_job = per_job_times(runs, jobs, False, lambda r: r["time"])
    geomean = math.exp(statistics.fmean(math.log(t) for t in per_job))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (sum(per_job), "s"),
        "job_geomean_s": (geomean, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }, per_job


def per_layer(runs, jobs, tracer):
    """Layer self times and counters of each job's fastest traced
    execution, summed over the job set. Also checks that every traced
    execution of a job gives the same counters."""
    walls = tracer.job_walls()
    best = fastest_traced(runs, jobs, lambda r: walls[r["id"]])
    selfs = tracer.self_times({run["id"] for run in best})
    metrics = {}
    for name in LAYER_SPANS:
        metrics[name + "_s"] = (selfs.get(name, 0.0), "s")
    counters = {}
    for run in best:
        for name, value in run["counters"].items():
            counters[name] = counters.get(name, 0) + value
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    osc = counters.get("unfolding.oscillator_terms", 0)
    metrics["unfolding.window_share"] = (
        100.0 * counters.get("unfolding.window_terms", 0) / osc if osc
        else 0.0, "%")
    # Traced minus untraced wall_s, both at quiet speed.
    metrics["trace.overhead_s"] = (
        sum(per_job_times(runs, jobs, True, lambda r: walls[r["id"]])) -
        sum(per_job_times(runs, jobs, False, lambda r: r["time"])), "s")
    repeat = all(run["counters"] == best[run["job"]]["counters"]
                 for run in runs if run["traced"])
    return metrics, repeat


def main(argv=None):
    args = parse_args(argv)
    workloads = load_workloads()
    os.makedirs(WORKDIR, exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as jobdir:
            workloads.build(args.workload, args.seed, jobdir)
            print("ready", flush=True)
        return 0
    setup_s = None if args.trace else measure_setup(args)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as jobdir:
        jobs = workloads.build(args.workload, args.seed, jobdir)
        runs, tally, tracer = run_rounds(args, jobs)
    correct = not tally.unexpected
    if args.trace:
        metrics, repeat = per_layer(runs, jobs, tracer)
        if not repeat:
            correct = False
            print("counters differ between traced executions of a job")
        path = os.path.join(WORKDIR, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.write(path)
        print("spans written to %s" % os.path.relpath(path, ROOT))
        osc = metrics["unfolding.oscillator_terms"][0]
        if osc:
            print("window share: %d of %d oscillator terms (%.1f%%)"
                  % (metrics["unfolding.window_terms"][0], osc,
                     metrics["unfolding.window_share"][0]))
    else:
        metrics, best = end_to_end(runs, jobs, setup_s)
        for job, t in zip(jobs, best):
            print("job %-32s %.4f s" % (job.name, t), file=sys.stderr)
        print("speed probe: median %.4f ms, %.4f ms at quiet speed"
              % (1000 * statistics.median(run["probe"] for run in runs),
                 1000 * PROBE_QUIET_S))
    print("workload %s seed %d: %d jobs, %d executions, attempted %d, "
          "failed %d" % (args.workload, args.seed, len(jobs), len(runs),
                         tally.attempted, tally.failed))
    for name, (fault, problems) in tally.counted.items():
        print("counted failure %s: %s; fault: %s"
              % (name, "; ".join(problems[:2]), fault))
    for name, problems in tally.unexpected.items():
        print("FAILED %s: %s" % (name, "; ".join(problems[:3])))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
