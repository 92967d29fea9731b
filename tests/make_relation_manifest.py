#!/usr/bin/env python3
"""Write the relation manifest of the acceptance grid.

    PYTHONPATH=src python3 tests/make_relation_manifest.py > tests/relation_manifest.txt

One line per spec of `surface.spec_grid()`: the spec as (g,s,n,k,flavor)
and two sha256 digests.  The first is over the chains that
`build_relation_system` checks, in build order: every exact chain, then
every pinned partial instance, each as (rid, sorted items).  The second
is over each ambiguity key's basis chains, keys in build order and
chains in draw order (bit t of a draw adds chain t), each as (key,
sorted items).  `test_engine.py` rebuilds the lines and compares them
with the committed file, so a change that alters any relation or
ambiguity chain of the grid, reorders them or drops one fails tier-1.
"""

import hashlib

from mcgtwist.engine import build_relation_system
from mcgtwist.surface import spec_grid


def digest(rows):
    """The sha256 hex digest of (label, chain) rows, in order."""
    out = hashlib.sha256()
    for label, chain in rows:
        out.update(repr((label, sorted(chain.items()))).encode())
        out.update(b"\n")
    return out.hexdigest()


def spec_digests(system):
    """The two digests of a relation system: its checked chains and its
    ambiguity chains."""
    rows = list(system.exact) + [(p.rid, p.base) for p in system.instances]
    ambiguity = [(key, c) for key, chains in system.ambiguity_chains.items()
                 for c in chains]
    return digest(rows), digest(ambiguity)


def manifest_lines():
    for spec in spec_grid():
        yield "(%d,%d,%d,%d,%s) %s %s" % (
            spec.g, spec.s, spec.n, spec.k, spec.flavor,
            *spec_digests(build_relation_system(spec)),
        )


if __name__ == "__main__":
    for line in manifest_lines():
        print(line)
