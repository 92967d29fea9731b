#!/usr/bin/env python3
"""Write the relation manifest of the acceptance grid.

    PYTHONPATH=src python3 tests/make_relation_manifest.py > tests/relation_manifest.txt

One line per spec of `surface.spec_grid()`: the spec as (g,s,n,k,flavor)
and a sha256 over the chains that `build_relation_system` checks, in
build order: every exact chain, then every pinned partial instance, each
as (rid, sorted items).  `test_engine.py` rebuilds the lines and
compares them with the committed file, so a change that alters any
relation chain of the grid, reorders them or drops one fails tier-1.
"""

import hashlib

from mcgtwist.engine import build_relation_system
from mcgtwist.surface import spec_grid


def spec_digest(system):
    """The sha256 hex digest of a relation system's checked chains."""
    digest = hashlib.sha256()
    rows = list(system.exact) + [(p.rid, p.base) for p in system.instances]
    for rid, chain in rows:
        digest.update(repr((rid, sorted(chain.items()))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def manifest_lines():
    for spec in spec_grid():
        yield "(%d,%d,%d,%d,%s) %s" % (
            spec.g, spec.s, spec.n, spec.k, spec.flavor,
            spec_digest(build_relation_system(spec)),
        )


if __name__ == "__main__":
    for line in manifest_lines():
        print(line)
