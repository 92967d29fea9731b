#!/usr/bin/env python3
"""Print how the build and `compute_h1` grow with the genus.

    PYTHONPATH=src python3 tests/growth.py

For (g,3,3,0,pmk) and (g,3,3,0,m), g in 10, 24, 48, 96 and 160: the
best of 5 `compute_h1` and `build_relation_system` times, the chain
dimension dim, the coordinates r left by the elimination and the kept
partial rows.  Then, at (48,3,3,0,m) and (96,3,3,0,m), every derived
letter's closed forms are checked against its word walked letter by
letter (`helpers.walk_fox`); the test suite checks them up to g = 48.

Exits 1 when a spec's invariants differ from `certify.oracle` or a
closed form differs from the walk.  The script runs outside the test
suite, like `quotient_sizes.py`.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from mcgtwist.certify import oracle  # noqa: E402
from mcgtwist.chains import ChainSpace, _fox_columns  # noqa: E402
from mcgtwist.engine import build_relation_system, compute_h1  # noqa: E402
from mcgtwist.surface import SurfaceSpec, Word  # noqa: E402
from helpers import derived_letters, walk_fox  # noqa: E402

GENERA = (10, 24, 48, 96, 160)
REPEATS = 5
WALKED = (48, 96)


def best_time(fn, spec):
    """The smallest wall time of REPEATS calls, and the last result."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(spec)
        best = min(best, time.perf_counter() - t0)
    return best, result


def closed_forms_match_the_walk(spec):
    space = ChainSpace(spec)
    for x in derived_letters(spec):
        chains, bcols, _ = walk_fox(space, Word.of(x))
        cols, b = _fox_columns(space, x)
        if isinstance(cols, int):
            cols = [{cols + k: 1} for k in range(space.d)]
        if cols != chains or b != bcols:
            return False
    return True


def main():
    failed = False
    print("| spec | compute_h1 | build | dim | r | kept | oracle |")
    print("|------|------------|-------|-----|---|------|--------|")
    for g in GENERA:
        for flavor in ("pmk", "m"):
            spec = SurfaceSpec.make(g, 3, 3, 0, flavor)
            total, result = best_time(compute_h1, spec)
            build, _ = best_time(build_relation_system, spec)
            system = result.system
            match = result.invariants == oracle(spec)
            failed |= not match
            print("| (%d,3,3,0,%s) | %.3f s | %.3f s | %d | %d | %d | %s |"
                  % (g, flavor, total, build, system.space.dim,
                     system.elimination.rank, len(system.partials),
                     "match" if match else "MISMATCH"))
    for g in WALKED:
        spec = SurfaceSpec.make(g, 3, 3, 0, "m")
        ok = closed_forms_match_the_walk(spec)
        failed |= not ok
        print("closed forms at (%d,3,3,0,m): %s"
              % (g, "match the walk" if ok else "DIFFER from the walk"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
