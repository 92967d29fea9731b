#!/usr/bin/env python3
"""Write perfbench/reference.jsonl: the expected record of every spec the
benchmark computes (the 329 acceptance-grid specs and the `large` specs).

Each line is `cli.record_json` output without `ms` and `seed`, computed
with 17 samples at seed 0.  Regenerate only on a commit whose answers are
known good; the benchmark counts any difference as a failure.

Usage, from the root of the repository:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import sys

from mcgtwist import SurfaceSpec, cli

from worker import (LARGE, REFERENCE, SAMPLES, acceptance_grid,
                    comparable_record, spec_key)


def main():
    specs = acceptance_grid(SurfaceSpec)
    keys = {spec_key(spec) for spec in specs}
    specs += [s for s in (SurfaceSpec.make(*t) for t in LARGE)
              if spec_key(s) not in keys]
    with open(REFERENCE, "w", encoding="utf-8") as out:
        for spec in specs:
            out.write(comparable_record(cli, cli.run_record(spec, SAMPLES, 0))
                      + "\n")
    print("wrote %d records to %s" % (len(specs), REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
