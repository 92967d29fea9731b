"""Exact integer linear algebra: Smith forms, kernels, quotients."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgtwist.errors import NoIntegerSolution
from mcgtwist.intlin import (
    AbelianInvariants,
    ColumnSolver,
    Echelon,
    echelon_insert,
    gf2_insert,
    parity_mask,
    peel_unit_singletons,
    snf_factors,
    vec_axpy,
    xgcd,
)
from helpers import matvec, snf_reference


def sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def column_solver(rows):
    """A solver over the columns of a dense matrix, one tag per column."""
    solver = ColumnSolver(len(rows))
    for c, col in enumerate(zip(*rows)):
        solver.add(sparse(col), tag=c)
    return solver


def kernel(rows):
    """Dense Z-basis of {v : rows @ v = 0}."""
    ncols = len(rows[0])
    return [[row.get(c, 0) for c in range(ncols)]
            for row in column_solver(rows).kernel_basis()]


def test_xgcd():
    for a, b in [(0, 0), (4, 6), (-4, 6), (7, 0), (0, -5), (12, 18)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


class TestSnf:
    def test_diagonal(self):
        assert snf_factors([{0: 2}, {1: 2}]) == [2, 2]

    def test_small(self):
        assert snf_factors([sparse([2, 4]), sparse([6, 8])]) == [2, 4]

    def test_identity(self):
        factors = snf_factors([{0: 1}, {1: 1}])
        assert factors == [1, 1]
        assert AbelianInvariants.from_factors(factors, 2).torsion == ()


class TestKernel:
    def test_forced(self):
        basis = kernel([[1, 1]])
        assert len(basis) == 1
        assert basis[0] in ([1, -1], [-1, 1])

    def test_zero_map(self):
        basis = kernel([[0, 0, 0], [0, 0, 0]])
        assert sorted(basis) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


class TestSolve:
    def test_identity(self):
        solver = column_solver([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert solver.solve({0: 5, 1: -2, 2: 7}) == {0: 5, 1: -2, 2: 7}

    def test_parity_obstruction(self):
        with pytest.raises(NoIntegerSolution):
            column_solver([[2]]).solve({0: 1})

    def test_underdetermined(self):
        x = column_solver([[1, 1]]).solve({0: 3})
        assert x.get(0, 0) + x.get(1, 0) == 3


class TestQuotient:
    # The pipeline's quotient: relations written in lattice coordinates
    # by a ColumnSolver over the lattice basis, then a Smith form.
    def test_two_torsion(self):
        solver = column_solver([[1, 0], [0, 1]])
        coords = [solver.solve(r) for r in ({0: 2}, {1: 2})]
        inv = AbelianInvariants.from_factors(snf_factors(coords), 2)
        assert inv.torsion == (2, 2)
        assert inv.free_rank == 0

    def test_no_relations(self):
        inv = AbelianInvariants.from_factors(snf_factors([]), 2)
        assert inv.torsion == ()
        assert inv.free_rank == 2

    def test_relation_outside(self):
        # The lattice 2Z x 0 does not contain (1, 0).
        with pytest.raises(NoIntegerSolution):
            column_solver([[2], [0]]).solve({0: 1})


class TestInvariants:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            AbelianInvariants((4, 2), 0)
        with pytest.raises(ValueError):
            AbelianInvariants((1,), 0)

    @pytest.mark.parametrize("torsion, free_rank, message", [
        ((4, 2), 0, "torsion entries must form a divisibility chain"),
        ((2, 6, 9), 1, "torsion entries must form a divisibility chain"),
        ((1, 2), 0, "torsion entries must be at least 2"),
        ((0,), 0, "torsion entries must be at least 2"),
        ((2,), -1, "free rank must be non-negative"),
    ])
    def test_validation_messages(self, torsion, free_rank, message):
        with pytest.raises(ValueError) as info:
            AbelianInvariants(torsion, free_rank)
        assert str(info.value) == message

    def test_value_semantics(self):
        inv = AbelianInvariants((2, 4), 1)
        same = AbelianInvariants.from_factors([1, 2, 4], 4)
        assert inv == same and inv is not same and not inv != same
        assert hash(inv) == hash(same) == hash(((2, 4), 1))
        assert {inv: 1}[same] == 1
        assert inv != AbelianInvariants((2, 4), 0)
        assert inv != AbelianInvariants((2, 2), 1)
        assert inv != ((2, 4), 1)
        assert repr(inv) == "AbelianInvariants(torsion=(2, 4), free_rank=1)"
        assert repr(AbelianInvariants((), 0)) == (
            "AbelianInvariants(torsion=(), free_rank=0)")
        with pytest.raises(AttributeError):
            inv.free_rank = 0
        with pytest.raises(AttributeError):
            del inv.torsion
        assert inv == same

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
@given(small_matrices, st.integers(0, 2 ** 30))
def test_snf_permutation_invariance(rows, seed):
    rng = random.Random(seed)
    factors = snf_factors([sparse(row) for row in rows])
    shuffled = [row[:] for row in rows]
    rng.shuffle(shuffled)
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    shuffled = [[row[j] for j in perm] for row in shuffled]
    assert snf_factors([sparse(row) for row in shuffled]) == factors
    for a, b in zip(factors, factors[1:]):
        assert a == 0 or b % a == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_saturation(rows):
    basis = kernel(rows)
    for v in basis:
        assert matvec(rows, v) == [0] * len(rows)
    # Saturation: scaled multiples of any integer combination stay in
    # the span with the scale dividing out exactly.
    if basis:
        ech = Echelon(sparse(v) for v in basis)
        combo = {}
        for v in basis:
            for i, x in enumerate(v):
                if x:
                    combo[i] = combo.get(i, 0) + 3 * x
        assert ech.contains({i: x for i, x in combo.items() if x})
    transposed = [list(col) for col in zip(*rows)]
    assert len(basis) == len(rows[0]) - (len(rows) - len(kernel(transposed)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_quotient_matches_snf_of_columns(rows):
    # Z^rows modulo the columns, computed by solving each column in a
    # basis, here the unit vectors, then taking a Smith form, against
    # the Smith form of the matrix itself.
    dim = len(rows)
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    solver = column_solver(unit)
    coords = [solver.solve(sparse(col)) for col in zip(*rows)]
    inv = AbelianInvariants.from_factors(snf_factors(coords), dim)
    factors = snf_factors([sparse(row) for row in rows])
    assert inv == AbelianInvariants.from_factors(factors, dim)


def gf2_rank(rows, width):
    pivots = {}
    for row in rows:
        gf2_insert(pivots, parity_mask(sparse(row)), (1 << width) - 1)
    return len(pivots)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=2,
                 max_size=6),
        min_size=1, max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.integers(0, 2 ** 30),
)
def test_quotient_of_kernel_taken_in_ambient_coordinates(rows, seed):
    # The step compute_h1 rests on: for Z = ker A in Z^n and L inside Z,
    # Z^n / L = Z / L (+) Z^rank(A), and Z meets L + 2 Z^n in L + 2 Z.
    rng = random.Random(seed)
    n = len(rows[0])
    basis = kernel(rows)  # Z, as rows over Z^n
    k = len(basis)
    combos = [[rng.randint(-3, 3) for _ in range(k)]
              for _ in range(rng.randint(0, k + 1))]
    lattice = [[sum(c * z[i] for c, z in zip(combo, basis)) for i in range(n)]
               for combo in combos]  # L, in ambient coordinates
    in_kernel = AbelianInvariants.from_factors(
        snf_factors([sparse(c) for c in combos]), k)
    ambient = AbelianInvariants.from_factors(
        snf_factors([sparse(v) for v in lattice]), n)
    rank_a = Echelon(sparse(row) for row in rows).rank
    assert rank_a == n - k
    assert ambient.torsion == in_kernel.torsion
    assert ambient.free_rank - rank_a == in_kernel.free_rank
    # GF(2): the image of Z in Z^n / (L + 2 Z^n) has the dimension of
    # Z / (L + 2 Z).
    image = gf2_rank(lattice + basis, n) - gf2_rank(lattice, n)
    assert image == k - gf2_rank(combos, k)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.just([0, 0, 0]),
                  st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=3, max_size=3)),
        min_size=1, max_size=7,
    ),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
)
def test_column_solver_stores_zero_vectors_as_echelon_insert_does(vecs,
                                                                  target):
    # ColumnSolver.add hands every row, zero vectors included, to
    # echelon_insert with its bookkeeping entry; a solver built by
    # echelon_insert alone must end up the same.
    solver = ColumnSolver(3)
    reference = ColumnSolver(3)
    for t, v in enumerate(vecs):
        solver.add(sparse(v), tag=t)
        row = sparse(v)
        row[3 + t] = 1
        echelon_insert(reference.pivots, row)
    assert solver.pivots == reference.pivots
    assert solver.kernel_basis() == reference.kernel_basis()
    for b in (sparse(target), {}, sparse(vecs[-1])):
        try:
            expected = reference.solve(b)
        except NoIntegerSolution:
            with pytest.raises(NoIntegerSolution):
                solver.solve(b)
        else:
            assert solver.solve(b) == expected


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


# Mostly 0 and +-1, some +-2 and +-3: the unit-rich sparse rows of the
# sample matrices, where the unit-singleton peel of snf_factors does most
# of the work.
unit_rich_entries = st.sampled_from([0] * 8 + [1, -1] * 3 + [2, -2, 3, -3])


@st.composite
def unit_rich_matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(unit_rich_entries, min_size=ncols,
                                  max_size=ncols), max_size=6))
    if rows and len(rows) < 6 and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))  # a repeated row
    if len(rows) < 6 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return [sparse(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(unit_rich_matrices())
def test_snf_matches_determinantal_divisors(rows):
    assert snf_factors(rows) == snf_reference(rows)


class TestUnitPeel:
    # Cases that each phase of snf_factors must get right, checked
    # against the determinantal-divisor reference as well.
    def check(self, rows, expected):
        assert snf_factors(rows) == expected
        assert snf_reference(rows) == expected

    def test_bidiagonal_band_peels_one_column_at_a_time(self):
        # Column 0 meets row 0 only; deleting row 0 leaves column 1
        # meeting row 1 only, and so on down to the core 2 * e_5.  Closed
        # into a cycle, the band has no singleton left to peel.
        band = [{i: 1, i + 1: -1} for i in range(5)]
        self.check(band + [{5: 2}], [1, 1, 1, 1, 1, 2])
        self.check(band + [{5: 2, 0: 2}], [1, 1, 1, 1, 1, 4])

    def test_unit_row_singleton_whose_column_meets_other_rows(self):
        # Row 0 is e_0; row operations clear column 0 from rows 1 and 2.
        self.check([{0: 1}, {0: 3, 1: 2}, {0: -1, 1: 2, 2: 4}], [1, 2, 4])
        self.check([{0: -1}, {0: 1, 1: 2}], [1, 2])

    def test_non_unit_singleton_does_not_peel(self):
        # 2 * e_0 alone in its row, and 2 alone in column 1: neither is
        # a factor 1.
        self.check([{0: 2}, {0: 1, 1: 1}], [1, 2])
        self.check([{0: 3, 1: 2}, {0: 1, 2: 1}, {0: 1, 2: -1}], [1, 1, 4])


def test_vec_axpy_leaves_dst_alone_at_a_stored_zero():
    # A stored 0 in src adds nothing, whether or not dst has that key.
    dst = {}
    vec_axpy(dst, {3: 0}, 1)
    assert dst == {}
    dst = {3: 5, 4: 1}
    vec_axpy(dst, {3: 0, 4: -1}, 1)
    assert dst == {3: 5}


def added(row, extra):
    """row + extra, as a fresh sparse vector."""
    out = dict(row)
    vec_axpy(out, extra, 1)
    return out


def peel_check(rows, moving_rows, moving_cols, perturbations):
    """For each perturbation X (row index -> sparse row, confined to the
    moving rows and columns), the Smith form of rows + X must be one 1
    per cut column followed by that of the rows left plus their rows of
    X, off the cut columns."""
    before = [dict(r) for r in rows]
    rest, cut = peel_unit_singletons(rows, moving_rows, moving_cols)
    assert rows == before
    assert len(set(cut)) == len(cut)
    for x in perturbations:
        assert set(x) <= set(moving_rows)
        assert all(set(row) <= set(moving_cols) for row in x.values())
        full = [added(row, x.get(i, {})) for i, row in enumerate(rows)]
        left = [added(row, {c: v for c, v in x.get(i, {}).items()
                            if c not in cut})
                for i, row in rest.items()]
        assert [1] * len(cut) + snf_factors(left) == snf_factors(full)
    return rest, cut


@st.composite
def perturbed_families(draw):
    """A unit-rich matrix, a random set of moving rows and columns, and
    three perturbations confined to them."""
    ncols = draw(st.integers(1, 6))
    rows = [sparse(row) for row in draw(st.lists(
        st.lists(unit_rich_entries, min_size=ncols, max_size=ncols),
        max_size=6))]
    moving_rows = draw(st.sets(st.integers(0, max(len(rows) - 1, 0))))
    moving_rows &= set(range(len(rows)))
    moving_cols = draw(st.sets(st.integers(0, ncols - 1)))
    perturbations = [
        {i: sparse([draw(unit_rich_entries) if c in moving_cols else 0
                    for c in range(ncols)]) for i in moving_rows}
        for _ in range(3)
    ]
    return rows, moving_rows, moving_cols, perturbations


@settings(max_examples=300, deadline=None)
@given(perturbed_families())
def test_restricted_peel_agrees_with_smith_form(family):
    peel_check(*family)


class TestRestrictedPeel:
    # The peel once for a family of matrices that differ only in some
    # rows and columns, against the Smith form of each member.
    def test_fixed_unit_row_clears_a_moving_column(self):
        # Row 0 = e_0 is fixed: row operations clear column 0 in row 1,
        # whatever a sample puts there.
        rest, cut = peel_check([{0: 1}, {0: 1, 1: 2}], {1}, {0},
                               [{1: {0: v}} for v in (1, 2, -3)])
        assert cut == [0] and rest == {1: {1: 2}}

    def test_moving_unit_row_does_not_peel(self):
        # e_0 in a moving row and column can become 2 e_0.
        rest, cut = peel_check([{0: 1}], {0}, {0}, [{0: {0: 1}}, {}])
        assert cut == [] and rest == {0: {0: 1}}

    def test_unit_alone_in_a_moving_column_does_not_peel(self):
        # The 1 at (0, 1) is alone in column 1, but row 1 can gain an
        # entry there: with -1 the lattice has index 4, not 2.
        rows = [{0: 2, 1: 1}, {0: 2}]
        rest, cut = peel_check(rows, {1}, {1},
                               [{1: {1: -1}}, {1: {1: 1}}, {}])
        assert cut == [] and rest == dict(enumerate(rows))

    def test_moving_row_peels_at_a_fixed_column(self):
        # Row 0 moves in column 1 only; its 1 at column 0 is alone, so
        # column operations clear the row whatever the draw.
        rest, cut = peel_check([{0: 1, 1: 3}, {1: 2}], {0}, {1},
                               [{0: {1: 1}}, {0: {1: -3}}])
        assert cut == [0] and rest == {1: {1: 2}}
