"""The benchmark worker: one process, one caller, specs in a fixed order.

Started by run.py with `src` on PYTHONPATH and a fixed PYTHONHASHSEED.
It sets up (imports mcgtwist, builds the workload's spec list), prints
READY, and with `--setup-only` exits there.  Otherwise it runs the
workload's rounds, checks every output, and prints one JSON line with
the raw timings, the failures and, in trace mode, the per-layer values.

Usage: python3 perfbench/worker.py WORKLOAD SEED ROUNDS TRACE [--setup-only]
"""

import json
import os
import platform
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.jsonl")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SAMPLES = 17  # the acceptance gate's sample count
STRIDE = 6  # grid and verify run every sixth spec of the acceptance grid
LARGE = (
    (9, 1, 3, 0, "pmk"),
    (9, 3, 3, 0, "pmk"),
    (9, 3, 3, None, "m"),
    (9, 2, 3, 0, "pmk"),
    (10, 3, 3, 0, "pmk"),
    (10, 1, 3, 0, "pmk"),
    (10, 3, 3, None, "m"),
    (10, 3, 3, 3, "pm+"),
)


def acceptance_grid(SurfaceSpec):
    """The 329 specs of tests/test_acceptance.py, in its order: every
    fixed-puncture spec, then every permutable-puncture spec."""
    specs = []
    for g in range(3, 10):
        for s in range(4):
            for n in range(4):
                if s + n < 1:
                    continue
                for k in range(n + 1):
                    specs.append(
                        SurfaceSpec.make(g, s, n, k, "pm+" if k == n else "pmk")
                    )
    for g in range(3, 10):
        for s in range(4):
            for n in (2, 3):
                specs.append(SurfaceSpec.make(g, s, n, flavor="m"))
    return specs


def workload_specs(workload, SurfaceSpec):
    if workload == "large":
        return [SurfaceSpec.make(*t) for t in LARGE]
    return acceptance_grid(SurfaceSpec)[::STRIDE]


def spec_key(spec):
    return "(%d,%d,%d,%d,%s)" % (spec.g, spec.s, spec.n, spec.k, spec.flavor)


def sampling_seed(seed, rnd):
    """Round `rnd` of a run with `--seed seed` samples with this seed, so a
    run's per-spec medians span several sampling seeds."""
    return 1000 * seed + rnd


def load_reference(path=REFERENCE):
    """spec key -> reference record line (record_json without ms, seed)."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            key = "(%d,%d,%d,%d,%s)" % (
                rec["genus"], rec["boundary"], rec["punctures"], rec["k"],
                rec["flavor"])
            out[key] = line.strip()
    return out


def comparable_record(cli, record):
    """cli.record_json output without the run-dependent ms and seed."""
    rec = json.loads(cli.record_json(record))
    del rec["ms"], rec["seed"]
    return json.dumps(rec)


def call(cli, workload, spec, seed):
    """The program's work for one spec, as the CLI does it."""
    if workload == "verify":
        return cli.verify_spec(spec) + cli.fault_checks(spec)
    return cli.run_record(spec, SAMPLES, seed)


def check(cli, workload, spec, output, reference):
    """Failure messages for one spec's output; empty when correct."""
    if workload == "verify":
        return list(output)
    failures = []
    line = comparable_record(cli, output)
    expected = reference.get(spec_key(spec))
    if line != expected:
        failures.append("record differs from the reference: %s" % line)
    if not output["match"]:
        failures.append("invariants differ from the oracle")
    if output["lower_bound"] > output["oracle"]:
        failures.append("lower bound %d exceeds the oracle exponent %d"
                        % (output["lower_bound"], output["oracle"]))
    return failures


def run_round(cli, workload, specs, seed, reference):
    """One pass over the specs: (wall seconds, per-spec seconds, failures)."""
    times = []
    failures = []
    start = time.perf_counter()
    for spec in specs:
        t0 = time.perf_counter()
        try:
            output = call(cli, workload, spec, seed)
        except Exception as exc:  # a raising spec is a failed spec
            times.append(time.perf_counter() - t0)
            failures.append("%s raised %s: %s"
                            % (spec_key(spec), type(exc).__name__, exc))
            continue
        times.append(time.perf_counter() - t0)
        failures.extend("%s %s" % (spec_key(spec), msg)
                        for msg in check(cli, workload, spec, output, reference))
    return time.perf_counter() - start, times, failures


def wrapper_cost_us(Tracer, calls=200000):
    """Measured cost of one traced call of a no-op, in microseconds."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return best / calls * 1e6


def measure(cli, workload, specs, seed, rounds, trace, reference):
    """Run the rounds.  In trace mode each spec runs once untraced and
    then once traced with the same sampling seed, back to back, so that
    machine noise cancels in the overhead ratio; the untraced and the
    traced calls are kept as two rounds."""
    result = {"walls": [], "times": [], "failed": 0, "attempted": 0,
              "failures": []}

    def account(wall, times, failures):
        result["walls"].append(wall)
        result["times"].append(times)
        result["attempted"] += len(specs)
        bad = {msg.split(" ", 1)[0] for msg in failures}
        result["failed"] += len(bad)
        result["failures"].extend(failures[:5])

    if not trace:
        for rnd in range(rounds):
            account(*run_round(cli, workload, specs, sampling_seed(seed, rnd),
                               reference))
        return result

    from tracer import Tracer, per_layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    for spec in specs:
        plain.append(run_round(cli, workload, [spec], sampling_seed(seed, 0),
                               reference))
        with tracer:
            traced.append(run_round(cli, workload, [spec],
                                    sampling_seed(seed, 0), reference))
    for runs in (plain, traced):
        account(sum(wall for wall, _, _ in runs),
                [t for _, times, _ in runs for t in times],
                [f for _, _, failures in runs for f in failures])
    layers, stats = per_layer_metrics(tracer)
    untraced_s, traced_s = result["walls"]
    layers["trace_overhead"] = traced_s / untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.wrapper_us"] = wrapper_cost_us(Tracer)
    result["layers"] = layers
    result["span_stats"] = stats
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, "spans-%s-seed%d.txt.gz" % (workload, seed)))
    return result


def main(argv):
    workload, seed, rounds, trace = argv[:4]
    seed, rounds, trace = int(seed), int(rounds), trace == "1"

    import mcgtwist
    from mcgtwist import cli
    from mcgtwist.intlin import BACKEND_NAME

    specs = workload_specs(workload, mcgtwist.SurfaceSpec)
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(mcgtwist.__file__).startswith(src + os.sep):
        print("mcgtwist imported from %s, not from %s"
              % (mcgtwist.__file__, src), file=sys.stderr)
        return 2
    random.Random(seed).shuffle(specs)
    result = measure(cli, workload, specs, seed, rounds, trace,
                     load_reference())
    result["specs"] = [spec_key(spec) for spec in specs]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["env"] = {
        "backend": BACKEND_NAME,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
