"""Exact integer linear algebra: normal forms, kernels, quotients."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgtwist.errors import NoIntegerSolution, RelationOutsideKernel
from mcgtwist.intlin import (
    AbelianInvariants,
    ColumnSolver,
    Echelon,
    IntMatrix,
    hnf,
    kernel_lattice,
    quotient_invariants,
    snf,
    snf_factors,
    solve,
    xgcd,
)


def test_xgcd():
    for a, b in [(0, 0), (4, 6), (-4, 6), (7, 0), (0, -5), (12, 18)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


class TestHnf:
    def test_identity(self):
        h, u = hnf(IntMatrix.identity(3))
        assert h == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)

    def test_small(self):
        m = IntMatrix([[2, 4], [6, 8]])
        h, u = hnf(m)
        assert h == IntMatrix([[2, 0], [0, 4]])
        assert u @ m == h
        assert u.det() in (1, -1)

    def test_zero(self):
        m = IntMatrix.zeros(2, 3)
        h, u = hnf(m)
        assert h == IntMatrix.zeros(2, 3)
        assert u == IntMatrix.identity(2)


class TestSnf:
    def test_diagonal(self):
        assert snf(IntMatrix([[2, 0], [0, 2]])).factors == (2, 2)

    def test_small(self):
        res = snf(IntMatrix([[2, 4], [6, 8]]))
        assert res.factors == (2, 4)

    def test_identity(self):
        res = snf(IntMatrix.identity(2))
        assert res.factors == (1, 1)
        assert res.invariants.torsion == ()


class TestKernel:
    def test_forced(self):
        basis = kernel_lattice(IntMatrix([[1, 1]]))
        assert len(basis) == 1
        assert basis[0] in ([1, -1], [-1, 1])

    def test_zero_map(self):
        basis = kernel_lattice(IntMatrix.zeros(2, 3))
        assert sorted(basis) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


class TestSolve:
    def test_identity(self):
        assert solve(IntMatrix.identity(3), [5, -2, 7]) == [5, -2, 7]

    def test_parity_obstruction(self):
        with pytest.raises(NoIntegerSolution):
            solve(IntMatrix([[2]]), [1])

    def test_underdetermined(self):
        x = solve(IntMatrix([[1, 1]]), [3])
        assert x[0] + x[1] == 3


class TestQuotient:
    def test_two_torsion(self):
        inv = quotient_invariants([[1, 0], [0, 1]], [[2, 0], [0, 2]])
        assert inv.torsion == (2, 2)
        assert inv.free_rank == 0

    def test_no_relations(self):
        inv = quotient_invariants([[1, 0], [0, 1]], [])
        assert inv.torsion == ()
        assert inv.free_rank == 2

    def test_relation_outside(self):
        with pytest.raises(RelationOutsideKernel):
            quotient_invariants([[2, 0]], [[1, 0]])


class TestInvariants:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            AbelianInvariants((4, 2), 0)
        with pytest.raises(ValueError):
            AbelianInvariants((1,), 0)

    def test_from_factors(self):
        inv = AbelianInvariants.from_factors([1, 2, 2], 5)
        assert inv.torsion == (2, 2)
        assert inv.free_rank == 2
        assert inv.describe() == "Z_2 + Z_2 + Z^2"
        assert not inv.is_elementary_two_group()
        assert AbelianInvariants((2, 2), 0).is_elementary_two_group()


small_matrices = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_hnf_properties(rows):
    m = IntMatrix(rows)
    h, u = hnf(m)
    assert u.det() in (1, -1)
    assert u @ m == h
    pivots = []
    for row in h.data:
        nz = [j for j, v in enumerate(row) if v]
        if nz:
            assert row[nz[0]] > 0
            pivots.append(nz[0])
    assert pivots == sorted(pivots)


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.integers(0, 2 ** 30))
def test_snf_permutation_invariance(rows, seed):
    rng = random.Random(seed)
    factors = snf(IntMatrix(rows)).factors
    shuffled = [row[:] for row in rows]
    rng.shuffle(shuffled)
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    shuffled = [[row[j] for j in perm] for row in shuffled]
    assert snf(IntMatrix(shuffled)).factors == factors
    for a, b in zip(factors, factors[1:]):
        assert a == 0 or b % a == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_saturation(rows):
    m = IntMatrix(rows)
    basis = kernel_lattice(m)
    for v in basis:
        assert m.matvec(v) == [0] * m.rows
    # Saturation: scaled multiples of any integer combination stay in
    # the span with the scale dividing out exactly.
    if basis:
        ech = Echelon({i: x for i, x in enumerate(v) if x} for v in basis)
        combo = {}
        for v in basis:
            for i, x in enumerate(v):
                if x:
                    combo[i] = combo.get(i, 0) + 3 * x
        assert ech.contains({i: x for i, x in combo.items() if x})
    assert len(basis) == m.cols - (m.rows - len(kernel_lattice(m.transpose())))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_quotient_matches_snf_of_columns(rows):
    m = IntMatrix(rows)
    dim = m.rows
    identity = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    relations = [m.column(c) for c in range(m.cols)]
    inv = quotient_invariants(identity, relations)
    assert inv == snf(m).invariants


def test_column_solver_roundtrip():
    solver = ColumnSolver(3)
    vecs = [{0: 2, 1: 1}, {1: 1, 2: 3}, {0: 2, 2: -3}]
    for t, v in enumerate(vecs):
        solver.add(v, tag=t)
    kernel = solver.kernel_basis()
    assert len(kernel) == 1
    for row in kernel:
        acc = {}
        for t, c in row.items():
            for i, v in vecs[t].items():
                acc[i] = acc.get(i, 0) + c * v
        assert not any(acc.values())
    x = solver.solve({0: 4, 1: 2})
    acc = {}
    for t, c in x.items():
        for i, v in vecs[t].items():
            acc[i] = acc.get(i, 0) + c * v
    assert {i: v for i, v in acc.items() if v} == {0: 4, 1: 2}


def test_snf_factors_sparse_rows():
    assert snf_factors([{0: 2}, {1: 4}, {}]) == [2, 4]
    assert snf_factors([{0: 1, 1: 1}, {0: 1, 1: -1}]) == [1, 2]
    assert snf_factors([]) == []
