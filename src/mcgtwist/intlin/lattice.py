"""Lattice-level integer linear algebra.

Built on the sparse kernels in `_kernels`: abelian group invariants,
an integer column solver (kernels and exact solving) and lattices held
as sparse echelon bases.  Vectors at this level are dicts mapping
coordinate -> nonzero int.
"""

from ..errors import NoIntegerSolution
from ._kernels import echelon_insert, echelon_reduce


class AbelianInvariants:
    """Invariant factors and free rank of a finitely generated abelian
    group: an immutable value, equal, and hashed alike, exactly when both
    fields are."""

    def __init__(self, torsion, free_rank):
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion entries must form a divisibility chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion entries must be at least 2")
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        self.__dict__.update(torsion=torsion, free_rank=free_rank)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.torsion == other.torsion
                and self.free_rank == other.free_rank)

    def __hash__(self):
        return hash((self.torsion, self.free_rank))

    def __repr__(self):
        return "AbelianInvariants(torsion=%r, free_rank=%r)" % (
            self.torsion, self.free_rank)

    @classmethod
    def from_factors(cls, factors, ambient_rank):
        """Invariants of Z^ambient_rank modulo a sublattice with the given
        Smith diagonal (one entry per unit of rank, 1s included)."""
        return cls(tuple(f for f in factors if f != 1), ambient_rank - len(factors))

    def describe(self):
        parts = ["Z_%d" % t for t in self.torsion]
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        return " + ".join(parts) if parts else "0"

    def is_elementary_two_group(self):
        return self.free_rank == 0 and all(t == 2 for t in self.torsion)


class ColumnSolver:
    """Integer-combination solver for a fixed family of sparse vectors.

    Vectors live in Z^data_dim and are registered with integer tags.
    Internally each vector is stored augmented with a unit bookkeeping
    coordinate at offset data_dim + tag, and everything is kept in one
    shared echelon basis.  This yields, in one structure, membership
    tests, particular solutions of Sum_c x_c r_c = b, and a basis of the
    kernel {x : Sum_c x_c r_c = 0}.
    """

    def __init__(self, data_dim):
        self.off = data_dim
        self.pivots = {}

    def add(self, vec, tag):
        """Register `vec` under `tag`; tags must be distinct.

        The stored row is `vec` plus a bookkeeping entry 1 at off+tag.
        No row stored before has an entry there, so a zero vector
        becomes a pivot row at that column, with no special case.
        """
        row = {i: v for i, v in vec.items() if v}
        row[self.off + tag] = 1
        echelon_insert(self.pivots, row)

    def kernel_basis(self):
        """Basis of the integer kernel, as sparse dicts over the tags."""
        off = self.off
        rows = [
            (j, row) for j, row in self.pivots.items() if j >= off
        ]
        rows.sort()
        return [{c - off: v for c, v in row.items()} for _, row in rows]

    def solve(self, b):
        """A particular x with Sum_c x_c r_c = b, or NoIntegerSolution."""
        rem = echelon_reduce(self.pivots, b)
        if any(c < self.off for c in rem):
            raise NoIntegerSolution("target is not an integer combination")
        return {c - self.off: -v for c, v in rem.items()}


class Echelon:
    """A lattice held as an integer row-echelon basis (sparse rows)."""

    __slots__ = ("pivots",)

    def __init__(self, rows=None):
        self.pivots = {}
        if rows:
            for row in rows:
                self.insert(dict(row))

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Add a vector to the lattice; consumes `row`.  True iff the
        rank increased."""
        return echelon_insert(self.pivots, row)

    def contains(self, row):
        return not echelon_reduce(self.pivots, row)
