#!/usr/bin/env python3
"""Print the sizes of the quotient over the acceptance grid.

    PYTHONPATH=src python3 tests/quotient_sizes.py

Runs `compute_h1` at seed 0 on every spec of `surface.spec_grid()` and
reads the elimination and the `SampleMatrix` that the run built:

- the largest chain-space dim and the largest and summed r, the
  coordinates left after `UnitElimination`, one per live component of
  its signed forest;
- the nonzero residual images the elimination inserts into its echelon
  and those that reduce to zero there, counted by building each spec's
  elimination again with `echelon_insert` wrapped;
- the most rows and columns left after the fixed peel in one spec, and
  the sample rows left of all of them, over the grid;
- the specs where no draw can change the rows left (`vacuous`);
- the ambiguity chains of each key, those that project to zero, and the
  distinct nonzero projections;
- the nonzeros handed to `snf_factors`;
- per ambiguity key, the partial instances built, those kept, and the
  rank the kept rows add to E + A, the exact lattice plus the key's
  ambiguity lattice (equal to the kept count when they are independent
  modulo E + A).

These are the figures the README quotes; the script runs outside the
test suite, like `make_relation_manifest.py`.
"""

from collections import Counter

import mcgtwist.engine as engine
import mcgtwist.intlin.lattice as lattice
from mcgtwist.intlin import Echelon
from mcgtwist.surface import spec_grid


def main():
    matrices, nnz = [], 0

    class Recorded(engine.SampleMatrix):
        def __init__(self, *args):
            super().__init__(*args)
            matrices.append(self)

    snf_factors = engine.snf_factors

    def counted(rows):
        nonlocal nnz
        rows = list(rows)
        nnz += sum(map(len, rows))
        return snf_factors(rows)

    echelon_insert = lattice.echelon_insert
    inserted = reduced = 0

    def counted_insert(pivots, row):
        nonlocal inserted, reduced
        grew = echelon_insert(pivots, row)
        inserted += 1
        reduced += not grew
        return grew

    engine.SampleMatrix, engine.snf_factors = Recorded, counted
    dims, ranks, left_rows, left_cols = [], [], [], []
    rows_total = rows_left = vacuous = distinct = 0
    chains, zeros = Counter(), Counter()
    built, kept, added = Counter(), Counter(), Counter()
    for spec in spec_grid():
        system = engine.compute_h1(spec, seed=0).system
        matrix = matrices.pop()
        elim = system.elimination
        lattice.echelon_insert = counted_insert
        engine.RelationSystem.elimination.func(system)  # counted again
        lattice.echelon_insert = echelon_insert
        dims.append(system.space.dim)
        ranks.append(elim.rank)
        rows = matrix.rows()
        left_rows.append(len(rows))
        left_cols.append(elim.rank - len(matrix.cut))
        rows_total += len(elim.base) + len(system.partials)
        rows_left += len(rows)
        if system.partials and matrix.vacuous:
            vacuous += 1
        for key, (nbits, groups) in elim.ambiguity.items():
            chains[key] += nbits
            zeros[key] += nbits - sum(m.bit_count() for m, _ in groups)
            distinct += len(groups)
            span = Echelon(elim.base + [image for _, image in groups])
            rank = span.rank
            for p in system.partials:
                if p.ambiguity == key:
                    span.insert(dict(p.projected))
                    kept[key] += 1
            added[key] += span.rank - rank
        built.update(p.ambiguity for p in system.instances)

    print("specs %d" % len(dims))
    print("largest dim %d, largest r %d, sum of r %d"
          % (max(dims), max(ranks), sum(ranks)))
    print("elimination echelon: %d residual images inserted, "
          "%d reduce to zero" % (inserted, reduced))
    print("after the fixed peel: at most %d rows and %d columns, "
          "%d of %d sample rows" % (max(left_rows), max(left_cols),
                                    rows_left, rows_total))
    print("vacuous specs %d" % vacuous)
    print("ambiguity chains %d (%s), %d project to zero (%s), "
          "%d distinct projections" % (
              sum(chains.values()),
              ", ".join("%s %d" % kv for kv in sorted(chains.items())),
              sum(zeros.values()),
              ", ".join("%s %d" % kv for kv in sorted(zeros.items())),
              distinct))
    print("Smith-form input nonzeros %d" % nnz)
    for key in sorted(built):
        print("%s instances: %d built, %d kept, rank %d over E + A"
              % (key, built[key], kept[key], added[key]))


if __name__ == "__main__":
    main()
