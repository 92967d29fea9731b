#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `.perfbench/result-*.json` files that
perfbench/run.py wrote on one commit.  Files are paired by name
(workload, seed, trace mode).  A pair whose integer-kernel backend,
seed, workload, rounds or hash seed differ is refused: the backend
changes the cost of every kernel and the seed changes the sampled
rows, so such numbers are not comparable.  For each workload and metric
the table shows both medians over the paired seeds and how many pairs
the new commit won (lower is better for times, memory and ratios; counts
show no winner).
"""

import json
import os
import statistics
import sys

MUST_MATCH = ("backend", "seed", "workload", "rounds", "pythonhashseed", "trace")
LOWER_IS_BETTER_UNITS = ("s", "ms", "us", "MB", "ratio")


def load(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("result-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                out[name] = json.load(handle)
    return out


def refusal(base, new):
    """Why two results may not be compared, or None."""
    for key in MUST_MATCH:
        if base["env"].get(key) != new["env"].get(key):
            return "%s differs: %r vs %r" % (
                key, base["env"].get(key), new["env"].get(key))
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    pairs = {}
    refused = 0
    for name in sorted(set(base) & set(new)):
        why = refusal(base[name], new[name])
        if why:
            print("refused %s: %s" % (name, why), file=sys.stderr)
            refused += 1
            continue
        env = base[name]["env"]
        pairs.setdefault((env["workload"], env["trace"]), []).append(
            (base[name], new[name]))
    if refused or not pairs:
        print("%d pair(s) refused, %d comparable"
              % (refused, sum(len(runs) for runs in pairs.values())),
              file=sys.stderr)
        return 1
    print("%-8s %-40s %12s %12s %8s %6s" % (
        "workload", "metric", "base", "new", "change", "wins"))
    for (workload, _), runs in sorted(pairs.items()):
        for metric in sorted(runs[0][0]["metrics"]):
            unit = runs[0][0]["metrics"][metric]["unit"]
            a = [b["metrics"][metric]["value"] for b, _ in runs]
            b = [n["metrics"][metric]["value"] for _, n in runs]
            ma, mb = statistics.median(a), statistics.median(b)
            change = "%+7.1f%%" % (100.0 * (mb - ma) / ma) if ma else "     -"
            wins = "-"
            if unit in LOWER_IS_BETTER_UNITS:
                wins = "%d/%d" % (sum(y < x for x, y in zip(a, b)), len(runs))
            print("%-8s %-40s %12.6g %12.6g %8s %6s %s" % (
                workload, metric, ma, mb, change, wins, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
