"""Chain level: boundaries, rewriting, and the cycle lattice."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgtwist.catalog import build_catalog
from mcgtwist.chains import (
    ChainSpace,
    _closed_form_pair,
    _fox_columns,
    boundary1,
    cycle_lattice,
    expected_boundary,
    kernel_generator_list,
    rewrite_relation_all,
)
from mcgtwist.errors import UnknownDerived, UnknownLetter
from mcgtwist.intlin import Echelon, vec_axpy
from mcgtwist.surface import (
    Gen,
    Representation,
    SurfaceSpec,
    Word,
    build_representation,
    evaluate_word,
)
from helpers import (
    boundary_reference,
    column,
    dense,
    derived_letters,
    derived_word,
    expand_word,
    matvec,
    same_lattice,
    walk_fox,
)
from test_acceptance import PAST_GRID_SPECS, permutation_grid, twist_grid
from test_surface import all_specs

BOUNDARY_SPECS = [
    SurfaceSpec.make(3, 1, 0),
    SurfaceSpec.make(3, 0, 2, 0, "pmk"),
    SurfaceSpec.make(4, 2, 1, 0, "pmk"),
    SurfaceSpec.make(5, 0, 2, flavor="m"),
    SurfaceSpec.make(6, 1, 3, flavor="m"),
    SurfaceSpec.make(7, 0, 1),
    SurfaceSpec.make(9, 3, 3, 0, "pmk"),
    SurfaceSpec.make(4, 0, 3, 2, "pmk"),
    SurfaceSpec.make(3, 3, 2, flavor="m"),
]

# At least ten specs spanning all flavors, for the lattice equality
# check against the explicit generating family.
LATTICE_SPECS = BOUNDARY_SPECS + [
    SurfaceSpec.make(5, 2, 2, 2, "pm+"),
    SurfaceSpec.make(8, 1, 2, 1, "pmk"),
    SurfaceSpec.make(4, 1, 2, flavor="m"),
]


def rewrite_relation(space, lhs, rhs, xi):
    """Homology class of the relation lhs = rhs with coefficient xi_i.

    Reference oracle for rewrite_relation_all: the same formula, but
    the letters are walked once per coefficient with a running vector
    psi(prefix)^-1 xi_i instead of one running matrix.
    """
    out = {}
    columns = {}

    def step(gen, sign, q):
        # psi(gen)^sign q, as the sum of the dense columns q selects.
        if (gen, sign) not in columns:
            m = dense(space.rep, gen, sign)
            columns[gen, sign] = [column(m, c) for c in range(space.d)]
        image = [0] * space.d
        for c, v in enumerate(q):
            if v:
                image = [a + v * b
                         for a, b in zip(image, columns[gen, sign][c])]
        return image

    for word, side in ((lhs, 1), (rhs, -1)):
        q = [0] * space.d
        q[xi - 1] = 1
        for gen, e in expand_word(word, space.spec):
            if e > 0:
                for r, c in enumerate(q):
                    if c:
                        vec_axpy(out, {space.flat(gen, r + 1): c}, side)
                q = step(gen, -1, q)
            else:
                q = step(gen, 1, q)
                for r, c in enumerate(q):
                    if c:
                        vec_axpy(out, {space.flat(gen, r + 1): c}, -side)
    return out


class TestChainSpace:
    def test_flat_roundtrip(self):
        space = ChainSpace(SurfaceSpec.make(4, 1, 2, 0, "pmk"))
        for gen in space.gens:
            for i in range(1, space.d + 1):
                assert space.unflat(space.flat(gen, i)) == (gen, i)

    def test_class_names(self):
        space = ChainSpace(SurfaceSpec.make(3, 1, 0))
        chain = space.chain([("a", 1, 3, 1), ("u", 1, 1, -2)])
        assert space.format_chain(chain) == "+a_{1,3} -2*u_{1,1}"

    def test_chain_drops_cancelled_terms(self):
        space = ChainSpace(SurfaceSpec.make(3, 1, 0))
        chain = space.chain([("a", 1, 3, 2), ("u", 1, 1, 1), ("a", 1, 3, -2)])
        assert chain == {space.flat(Gen("u", 1), 1): 1}


@pytest.mark.parametrize("spec", BOUNDARY_SPECS, ids=str)
def test_boundary_matches_closed_form(spec):
    space = ChainSpace(spec)
    for gen in space.gens:
        for i in range(1, space.d + 1):
            assert space._bcol[gen][i - 1] == expected_boundary(spec, gen, i), (
                gen, i
            )


def test_boundary_columns_match_dense_inverse():
    # Boundary columns are built from the moved rows of psi(x)^-1; the
    # reference is column i of the dense matrix psi(x)^-1 - I, for all
    # 470 specs with g 3-12.
    for spec in all_specs(range(3, 13)):
        space = ChainSpace(spec)
        for gen in space.gens:
            inv = dense(space.rep, gen, -1)
            for i in range(space.d):
                col = column(inv, i)
                col[i] -= 1
                expected = {r: v for r, v in enumerate(col) if v}
                assert space._bcol[gen][i] == expected, (spec, gen, i)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BOUNDARY_SPECS), st.data())
def test_boundary1_matches_the_per_generator_reference(spec, data):
    # boundary1 reads the columns by flat coordinate; they must be the
    # very columns the reference looks up by generator.  Zero
    # coefficients and boundaries that cancel are drawn too.
    space = ChainSpace(spec)
    for gen in space.gens:
        for i in range(space.d):
            assert space._bflat[space.flat(gen, i + 1)] is space._bcol[gen][i]
    chain = data.draw(st.dictionaries(
        st.integers(0, space.dim - 1), st.integers(-3, 3), max_size=12))
    assert boundary1(space, chain) == boundary_reference(space, chain)


def test_sign_variants_break_boundary_consistency():
    # Either deliberately flipped sign must be caught by the closed-form
    # boundary table.
    spec = SurfaceSpec.make(3, 2, 3, flavor="m")
    for variant in ("e", "s"):
        rep = build_representation(spec, sign_variant=variant)
        space = ChainSpace(spec, rep)
        broken = [
            (gen, i)
            for gen in space.gens
            for i in range(1, space.d + 1)
            if space._bcol[gen][i - 1] != expected_boundary(spec, gen, i)
        ]
        assert broken, variant


class TestRewriting:
    def test_two_sum_formula_on_positive_words(self):
        # Direct implementation of the rewriting formula for positive
        # words: letter t contributes [x_t] (x) psi(x_1..x_{t-1})^-1 xi.
        spec = SurfaceSpec.make(4, 1, 1, 0, "pmk")
        space = ChainSpace(spec)
        lhs = Word.parse("a1 a2 u1 e1")
        rhs = Word.parse("e1 a3 a1")
        for xi in range(1, spec.d + 1):
            direct = {}
            for word, side in ((lhs, 1), (rhs, -1)):
                letters = list(expand_word(word, spec))
                for t, (gen, _) in enumerate(letters):
                    q = [0] * spec.d
                    q[xi - 1] = 1
                    for prev, _ in letters[:t]:
                        q = matvec(dense(space.rep, prev, -1), q)
                    for r, c in enumerate(q):
                        if c:
                            vec_axpy(direct, {space.flat(gen, r + 1): c}, side)
            assert rewrite_relation(space, lhs, rhs, xi) == direct

    def test_all_coefficients_agree_with_single(self):
        spec = SurfaceSpec.make(3, 1, 2, flavor="m")
        space = ChainSpace(spec)
        lhs = Word.parse("e1 s1 a1^-1 u1")
        rhs = Word.parse("a2 v2^-1 e2")
        vecs = rewrite_relation_all(space, lhs, rhs)
        for xi in range(1, spec.d + 1):
            assert vecs[xi - 1] == rewrite_relation(space, lhs, rhs, xi)

    @pytest.mark.parametrize("spec", BOUNDARY_SPECS, ids=str)
    def test_catalog_relations_agree_with_single(self, spec):
        # Every catalog word relation, and one relation through every
        # generator with inverse letters and a derived letter.
        space = ChainSpace(spec)
        gens = spec.generators()
        relations = [(entry.lhs, entry.rhs) for entry in build_catalog(spec, space)
                     if entry.kind == "word"]
        relations.append((
            Word((gen, (-1) ** t) for t, gen in enumerate(gens)),
            Word.parse("u2 e%d" % (spec.s + spec.n)) * Word.of(*reversed(gens)),
        ))
        for lhs, rhs in relations:
            vecs = rewrite_relation_all(space, lhs, rhs)
            for xi in range(1, spec.d + 1):
                assert vecs[xi - 1] == rewrite_relation(space, lhs, rhs, xi)

    def test_braid_relation_classes(self):
        # The braid relation rewritten at a coefficient beyond the
        # moving strands leaves the difference of the two twist classes.
        spec = SurfaceSpec.make(5, 1, 0)
        space = ChainSpace(spec)
        lhs = Word.parse("a1 a2 a1")
        rhs = Word.parse("a2 a1 a2")
        vec = rewrite_relation(space, lhs, rhs, 5)
        assert vec == space.chain([("a", 1, 5, 1), ("a", 2, 5, -1)])

    def test_relation_vectors_are_cycles(self):
        spec = SurfaceSpec.make(3, 0, 2, 0, "pmk")
        space = ChainSpace(spec)
        lhs = Word.parse("a1 e1")
        rhs = Word.parse("e1 a1")
        for vec in rewrite_relation_all(space, lhs, rhs):
            assert boundary1(space, vec) == {}


# Specs of every flavor, with derived letters u_2..u_{g-1} up to u_6.
CLOSED_FORM_SPECS = [
    SurfaceSpec.make(3, 1, 1),
    SurfaceSpec.make(4, 2, 1, 0, "pmk"),
    SurfaceSpec.make(5, 0, 3, 1, "pmk"),
    SurfaceSpec.make(6, 1, 2, flavor="m"),
    SurfaceSpec.make(7, 1, 3, flavor="m"),
]


def shaped(x, y, braid):
    """x y x = y x y when `braid`, else x y = y x."""
    if braid:
        return Word.of(x, y, x), Word.of(y, x, y)
    return Word.of(x, y), Word.of(y, x)


def assert_matches_reference(space, lhs, rhs):
    vecs = rewrite_relation_all(space, lhs, rhs)
    assert len(vecs) == space.d
    for xi in range(1, space.d + 1):
        assert vecs[xi - 1] == rewrite_relation(space, lhs, rhs, xi), xi


class TestClosedForms:
    """`rewrite_relation_all` rewrites commutations and braid relations
    in closed form; the letter-by-letter reference must agree, whether
    or not the relation holds."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_pairs_match_the_walk(self, data):
        spec = data.draw(st.sampled_from(CLOSED_FORM_SPECS))
        letters = spec.generators() + [Gen("u", i) for i in range(2, spec.g)]
        x = data.draw(st.sampled_from(letters))
        y = data.draw(st.sampled_from(letters))
        lhs, rhs = shaped(x, y, data.draw(st.booleans()))
        # A fresh space builds its derived letters in the drawn order.
        space = ChainSpace(spec)
        assert _closed_form_pair(lhs, rhs) == (x, y)
        assert_matches_reference(space, lhs, rhs)

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS[1:], ids=str)
    def test_false_relations_give_the_walks_non_cycles(self, spec):
        # a1, a2 and u1, u2 braid (R1, R9), so they do not commute, and
        # a1, u2 do not braid: each false form must still equal the
        # reference, which is then not a cycle.
        space = ChainSpace(spec)
        for x, y, braid in ((Gen("a", 1), Gen("a", 2), False),
                            (Gen("a", 1), Gen("u", 2), True),
                            (Gen("u", 1), Gen("u", 2), False)):
            lhs, rhs = shaped(x, y, braid)
            assert_matches_reference(space, lhs, rhs)
            assert any(boundary1(space, vec)
                       for vec in rewrite_relation_all(space, lhs, rhs))

    def test_every_word_relation_of_the_bench_and_large_specs(self):
        # The 55 benchmark specs (every sixth grid spec) and five specs
        # past the grid, up to (24,3,3,m): every catalog word relation,
        # closed form or walked, equals the reference at every
        # coefficient, which walks the words expanded to the alphabet.
        specs = (list(twist_grid()) + list(permutation_grid()))[::6]
        specs += [SurfaceSpec.make(g, 3, 3, 0, "pmk") for g in (10, 11, 12)]
        specs += [SurfaceSpec.make(g, 3, 3, flavor="m") for g in (10, 24)]
        closed = 0
        for spec in specs:
            space = ChainSpace(spec)
            for entry in build_catalog(spec, space):
                if entry.kind == "word":
                    closed += _closed_form_pair(
                        entry.lhs, entry.rhs) is not None
                    assert_matches_reference(space, entry.lhs, entry.rhs)
        assert closed > 1000

    def test_letters_off_the_alphabet_raise_as_the_walk_does(self):
        # The closed forms raise what the word reference raises, with
        # the same message, walked or in a closed-form pair.
        spec = SurfaceSpec.make(4, 1, 1)
        space = ChainSpace(spec)
        for name, error in (("v1", UnknownLetter), ("u9", UnknownDerived)):
            with pytest.raises(error) as expected:
                derived_word(Gen(name[0], int(name[1:])), spec)
            for lhs, rhs in (("%s a1" % name, "a1 %s" % name),
                             ("u1 %s u1" % name, "%s u1 %s" % (name, name)),
                             ("%s a1 a1" % name, "a1 %s" % name)):
                with pytest.raises(error) as raised:
                    rewrite_relation_all(space, Word.parse(lhs),
                                         Word.parse(rhs))
                assert str(raised.value) == str(expected.value)


# The 55 benchmark specs (every sixth grid spec) and the specs past the
# grid of the acceptance tests.
BENCH_AND_PAST_SPECS = ((list(twist_grid()) + list(permutation_grid()))[::6]
                        + PAST_GRID_SPECS)


@pytest.mark.parametrize("spec", BENCH_AND_PAST_SPECS, ids=str)
def test_derived_letters_match_the_walk(spec):
    # Every derived letter's closed forms against its word expanded to
    # the alphabet and walked letter by letter: the moved rows of both
    # signs, the boundary columns B and the Fox chains C(x) e_k.
    space = ChainSpace(spec)
    rep, d = space.rep, space.d
    ident = [{r: 1} for r in range(d)]
    for x in derived_letters(spec):
        chains, bcols, inverse = walk_fox(space, Word.of(x))
        cols, b = _fox_columns(space, x)
        if isinstance(cols, int):
            cols = [{cols + k: 1} for k in range(d)]
        assert cols == chains, x
        assert b == bcols, x
        assert rep.apply_letter(ident, x, -1) == inverse, x
        assert (rep.apply_letter(ident, x, 1)
                == evaluate_word(rep, expand_word(Word.of(x), spec))), x


def outer_braid(spec):
    """The space and the catalog entry R20:{n-1} of a flavor-m spec,
    whose right side holds e_{s+n}, built in a space with no derived
    letter resolved yet."""
    entry = next(e for e in build_catalog(spec)
                 if e.rid == "R20:%d" % (spec.n - 1))
    return ChainSpace(spec), entry


class TestDerivedLetterGrowth:
    """A derived letter is taken in closed form, not walked, so the
    relation through e_{s+n} costs one letter step per letter as
    written, at a stack depth that does not grow with g."""

    def test_outer_twist_takes_linearly_many_letter_steps(self, monkeypatch):
        steps = []
        apply_letter = Representation.apply_letter

        def counted(rep, *args):
            steps.append(1)
            return apply_letter(rep, *args)

        monkeypatch.setattr(Representation, "apply_letter", counted)
        spec = SurfaceSpec.make(48, 3, 3, flavor="m")
        space, entry = outer_braid(spec)
        rewrite_relation_all(space, entry.lhs, entry.rhs)
        assert len(steps) == len(entry.lhs) + len(entry.rhs)

    def test_outer_twist_needs_no_deeper_stack_with_genus(self):
        # 60 frames above the caller's: a recursion one level deeper per
        # genus would need far more at g = 48.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        space, entry = outer_braid(SurfaceSpec.make(48, 3, 3, flavor="m"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            vecs = rewrite_relation_all(space, entry.lhs, entry.rhs)
        finally:
            sys.setrecursionlimit(limit)
        assert len(vecs) == space.d
        assert not any(boundary1(space, vec) for vec in vecs)


@pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
def test_cycle_lattice_equals_explicit_family(spec):
    space = ChainSpace(spec)
    lattice = cycle_lattice(space)
    family = kernel_generator_list(space)
    for label, chain in family:
        assert boundary1(space, chain) == {}, label
        # `snf_factors` divides by its pivots, so no chain stores a 0.
        assert all(chain.values()), label
    listed = Echelon(dict(chain) for _, chain in family)
    assert same_lattice(lattice, listed)


def test_kernel_rank_small_case():
    # (3,1,0): nine chain classes, boundary rank 3, kernel rank 6.
    space = ChainSpace(SurfaceSpec.make(3, 1, 0))
    assert cycle_lattice(space).rank == 6


def test_require_cycle():
    # Lattice membership: a_{1,3} is a cycle, a_{1,1} is not.
    space = ChainSpace(SurfaceSpec.make(3, 1, 0))
    lattice = cycle_lattice(space)
    assert lattice.contains(space.chain([("a", 1, 3, 1)]))
    assert not lattice.contains(space.chain([("a", 1, 1, 1)]))
