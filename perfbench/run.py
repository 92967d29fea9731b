#!/usr/bin/env python3
"""The mcgtwist benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 48 --trace 0

Run from the root of a checkout.  The program is the package under
`src/`, used in place (pure Python, nothing to build).  A closed loop of
one caller: a single worker process computes the specs one after another
and no threads are started.  `--seconds` fixes the number of rounds from
the workload's nominal round time, so two commits compared at the same
settings do the same work.

With `--trace 0` the last line of standard output is the result with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
a traced pass.  Earlier lines describe the run environment, and the
full result, with the environment, is kept in
`.perfbench/result-<workload>-seed<seed>-trace<trace>.json` for
perfbench/compare.py.  See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Seconds one round takes at the baseline on a 2-core VM; `--seconds`
# divided by this gives the number of rounds.
NOMINAL_ROUND_S = {"grid": 8.0, "verify": 8.0, "large": 25.0}
SETUP_RUNS = 9  # worker start-ups timed per run, the last one measures
TIMEOUT_S = 170.0  # the whole command stays under 180 s
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "spec_p50_ms": "ms",
    "spec_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith(("ratio", "trace_overhead")):
        return "ratio"
    return "count"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def worker_env():
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def start_worker(args, rounds, setup_only, deadline):
    """Start a worker and wait for its READY line.

    Returns (process, seconds from start to READY).  The process is
    killed and SystemExit raised if it dies or misses the deadline."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), str(rounds),
           str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY" or time.monotonic() > deadline:
        finish(proc, deadline)
        raise SystemExit("worker failed during set-up")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker; return its remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker missed the %d s deadline" % TIMEOUT_S)
    if proc.returncode:
        raise SystemExit("worker exited with code %d" % proc.returncode)
    return out


def end_to_end(raw, setups):
    """End-to-end metrics from the worker's per-round timings.

    A spec's time is its mean over the rounds, that is over the run's
    sampling seeds; the mean was steadier across runs than the median or
    the minimum of so few rounds.  wall_s sums those means, the time of
    one pass, and spec_p50_ms is their median.  p90 is taken over every
    (spec, round) timing, so that 10% of them lie beyond it."""
    means = spec_means(raw)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(means),
        "spec_p50_ms": statistics.median(means) * 1e3,
        "spec_p90_ms": statistics.quantiles(
            pooled_ms(raw), n=10, method="inclusive")[8],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def pooled_ms(raw):
    """Every (spec, round) timing in milliseconds."""
    return [t * 1e3 for ts in raw["times"] for t in ts]


def spec_means(raw):
    """Each spec's mean time over the rounds, in the order of raw["specs"]."""
    return [statistics.mean(ts) for ts in zip(*raw["times"])]


def tail(raw):
    """The 95th percentile of the spec timings and the slowest spec by its
    mean over the rounds, as (p95 ms, spec, ms).

    Printed, not metrics with a bound: both rest on the few slowest specs,
    and across ten runs their spread reached 0.27 of the median, above
    the largest bound a metric may have (0.25)."""
    means = spec_means(raw)
    i = max(range(len(means)), key=means.__getitem__)
    p95 = statistics.quantiles(pooled_ms(raw), n=20, method="inclusive")[18]
    return p95, raw["specs"][i], means[i] * 1e3


def print_overhead(raw):
    """Which spans' call counts the tracing overhead comes from: each
    span's calls times the measured cost of one traced call."""
    layers = raw["layers"]
    cost = layers["trace.wrapper_us"] * 1e-6
    print("# trace overhead %.3fx (%.2f s); %d spans at %.2f us per call"
          % (layers["trace_overhead"], layers["trace.overhead_s"],
             layers["trace.spans"], cost * 1e6))
    ranked = sorted(raw["span_stats"].items(), key=lambda kv: -kv[1]["calls"])
    for name, stat in ranked[:8]:
        print("#   %-34s %8d calls  ~%.3f s  (%.0f%% of the calls)"
              % (name, stat["calls"], stat["calls"] * cost,
                 100.0 * stat["calls"] / layers["trace.spans"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mcgtwist", "__init__.py")):
        print("no mcgtwist source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))

    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, ready = start_worker(args, rounds, True, deadline)
        finish(proc, deadline)
        setups.append(ready)
    proc, ready = start_worker(args, rounds, False, deadline)
    setups.append(ready)
    raw = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    env = dict(raw["env"], nproc=os.cpu_count(), commit=git_commit(),
               seed=args.seed, workload=args.workload, rounds=rounds,
               specs=len(raw["specs"]), trace=args.trace)
    print("# env %s" % json.dumps(env, sort_keys=True))
    for msg in raw["failures"][:10]:
        print("# FAIL %s" % msg)
    error_rate = raw["failed"] / raw["attempted"]
    print("# error_rate %.4f (%d of %d spec runs failed)"
          % (error_rate, raw["failed"], raw["attempted"]))

    if args.trace:
        print_overhead(raw)
        values = raw["layers"]
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(raw, setups)
        units = END_TO_END_UNITS
        print("# %d specs x %d rounds; p90 and p95 over %d spec timings"
              % (len(raw["specs"]), rounds, len(raw["specs"]) * rounds))
        print("# spec p95 %.1f ms; slowest spec %s: %.1f ms, its mean over "
              "the rounds" % tail(raw))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in sorted(values)}

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "error_rate": error_rate, "metrics": metrics,
                   "raw": raw}, handle, indent=1, sort_keys=True)

    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
