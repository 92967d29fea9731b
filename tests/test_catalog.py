"""The relation catalog: gating, soundness, and fault detection."""

import pytest

from mcgtwist.catalog import (
    RelationEntry,
    build_catalog,
    k1_ambiguity_basis,
    parse_relations,
    partial_exact_part,
    partial_target_boundary,
    pmplus_boundary_solver,
    verify_catalog,
)
from mcgtwist.chains import ChainSpace, boundary1, cycle_lattice
from mcgtwist.intlin import vec_axpy
from mcgtwist.surface import Gen, SurfaceSpec, Word, evaluate_word
from mcgtwist.verify import faulty_representation
from helpers import column, dense, display, matmul, matvec

SOUND_SPECS = [
    SurfaceSpec.make(3, 1, 0),
    SurfaceSpec.make(5, 1, 2, 2, "pm+"),
    SurfaceSpec.make(4, 1, 2, 1, "pmk"),
    SurfaceSpec.make(9, 3, 3, 0, "pmk"),
    SurfaceSpec.make(3, 0, 2, flavor="m"),
    SurfaceSpec.make(7, 2, 3, flavor="m"),
    SurfaceSpec.make(4, 2, 2, flavor="m"),
    SurfaceSpec.make(3, 3, 3, 0, "pmk"),
]


def families(catalog):
    return {entry.rid.split(":", 1)[0] for entry in catalog}


def catalog_of(spec):
    return build_catalog(spec, ChainSpace(spec))


class TestGating:
    def test_smallest_case(self):
        # One boundary, genus 3: a single braid relation, the chain
        # relation, and the four imported class families.
        spec = SurfaceSpec.make(3, 1, 0)
        catalog = catalog_of(spec)
        assert families(catalog) == {"R1", "R7", "I1", "I2", "I3", "I4"}
        assert all(entry.kind != "partial" for entry in catalog)

    def test_genus_4_families(self):
        spec = SurfaceSpec.make(4, 1, 1)
        fams = families(catalog_of(spec))
        assert {"R8", "R9", "R10", "R11", "I6", "I7"} <= fams
        assert "R7" not in fams
        assert "I5" not in fams

    def test_partials_present_for_slides(self):
        spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
        catalog = catalog_of(spec)
        kinds = {e.kind for e in catalog}
        assert "partial" in kinds
        assert {"R12", "R13", "R14", "R15", "I5"} <= families(catalog)

    def test_braid_families_only_for_permutations(self):
        spec = SurfaceSpec.make(5, 0, 3, flavor="m")
        fams = families(catalog_of(spec))
        assert {"R16", "R17", "R18", "R19", "R20"} <= fams
        pmk = families(catalog_of(SurfaceSpec.make(5, 0, 3, 0, "pmk")))
        assert not ({"R16", "R17", "R18", "R19", "R20"} & pmk)

    def test_d_commutators_need_low_genus_and_boundary(self):
        assert "R4" in families(catalog_of(SurfaceSpec.make(3, 2, 0)))
        assert "R4" not in families(catalog_of(SurfaceSpec.make(5, 2, 0)))
        assert "R4" not in families(catalog_of(SurfaceSpec.make(3, 1, 0)))


@pytest.mark.parametrize("spec", SOUND_SPECS, ids=str)
def test_catalog_sound(spec):
    space = ChainSpace(spec)
    report = verify_catalog(space, build_catalog(spec, space))
    assert report.ok, report.failures
    assert report.checked > 0


@pytest.mark.parametrize("spec", SOUND_SPECS, ids=str)
def test_word_relations_hold_in_representation(spec):
    space = ChainSpace(spec)
    for entry in build_catalog(spec, space):
        if entry.kind == "word":
            lhs = evaluate_word(space.rep, entry.lhs)
            rhs = evaluate_word(space.rep, entry.rhs)
            assert lhs == rhs, entry.rid


def test_partial_exact_part_boundary():
    spec = SurfaceSpec.make(4, 0, 2, 0, "pmk")
    space = ChainSpace(spec)
    catalog = build_catalog(spec, space)
    partials = [e for e in catalog if e.kind == "partial" and e.conjugation]
    assert partials
    solver = pmplus_boundary_solver(space)
    for entry in partials:
        x, vj = entry.conjugation
        for xi in range(1, space.d + 1):
            target = partial_target_boundary(space, x, vj, xi)
            exact = partial_exact_part(space, x, vj, xi)
            assert boundary1(space, exact) == target
            solver.solve(target)  # must not raise


def target_by_products(space, x, vj, xi):
    """Reference for partial_target_boundary, straight from its formula:
    (psi(y)^-1 - I) psi(v_j)^-1 xi with psi(y)^-1 formed by two dense
    products, psi(v_j)^-1 psi(x)^-1 psi(v_j)."""
    pv = dense(space.rep, vj)
    pvi = dense(space.rep, vj, -1)
    yinv = matmul(matmul(pvi, dense(space.rep, x, -1)), pv)
    q = column(pvi, xi - 1)
    t = matvec(yinv, q)
    return {r: c for r, c in enumerate(v1 - v2 for v1, v2 in zip(t, q)) if c}


def exact_part_by_column(space, x, vj, xi):
    """Reference for partial_exact_part: [x] (x) xi plus [v_j] (x) the
    dense column xi of psi(x)^-1 - I."""
    col = column(dense(space.rep, x, -1), xi - 1)
    col[xi - 1] -= 1
    out = space.chain([(x.kind, x.index, xi, 1)])
    for r, c in enumerate(col):
        vec_axpy(out, {space.flat(vj, r + 1): 1}, c)
    return out


def slide_triples(space):
    """Every (x, v_j, xi): x any generator, v_j any puncture slide."""
    slides = [gen for gen in space.gens if gen.kind == "v"]
    assert slides
    for x in space.gens:
        for vj in slides:
            for xi in range(1, space.d + 1):
                yield x, vj, xi


# The pm+ flavor has no puncture slides; its partials (ambiguity "pm+")
# live in the pmk and m flavors.
SLIDE_SPECS = [
    SurfaceSpec.make(3, 0, 2, 0, "pmk"),
    SurfaceSpec.make(4, 1, 2, 1, "pmk"),
    SurfaceSpec.make(3, 2, 2, flavor="m"),
    SurfaceSpec.make(5, 0, 3, flavor="m"),
    SurfaceSpec.make(9, 3, 3, 0, "pmk"),
]


@pytest.mark.parametrize("spec", SLIDE_SPECS, ids=str)
def test_partial_target_matches_products(spec):
    space = ChainSpace(spec)
    for x, vj, xi in slide_triples(space):
        assert (partial_target_boundary(space, x, vj, xi)
                == target_by_products(space, x, vj, xi)), (x, vj, xi)


@pytest.mark.parametrize("spec", SLIDE_SPECS, ids=str)
def test_partial_exact_part_matches_dense_column(spec):
    space = ChainSpace(spec)
    for x, vj, xi in slide_triples(space):
        assert (partial_exact_part(space, x, vj, xi)
                == exact_part_by_column(space, x, vj, xi)), (x, vj, xi)


def test_k1_ambiguity_vectors_are_cycles():
    spec = SurfaceSpec.make(6, 0, 1)
    space = ChainSpace(spec)
    lattice = cycle_lattice(space)
    basis = k1_ambiguity_basis(space)
    assert basis
    for chain in basis:
        assert lattice.contains(chain)


def test_single_sign_corruption_caught_by_verify():
    # Flipping one sign in the slide matrices makes exactly the
    # slide-conjugation entries fail while word relations still hold
    # or fail loudly; either way the report cannot be clean.
    spec = SurfaceSpec.make(3, 2, 3, flavor="m")
    for variant in ("e", "s"):
        rep = faulty_representation(spec, variant)
        space = ChainSpace(spec, rep)
        report = verify_catalog(space, build_catalog(spec, space))
        assert not report.ok, variant


def test_relation_entry_keyword_defaults():
    entry = RelationEntry("C1", "class", vector={0: 1})
    assert (entry.rid, entry.kind, entry.vector) == ("C1", "class", {0: 1})
    assert (entry.lhs, entry.rhs, entry.conjugation, entry.ambiguity) == (
        None, None, None, None)
    x, vj = Gen("a", 1), Gen("v", 2)
    word = Word.of(x)
    entry = RelationEntry("P1", "partial", conjugation=(x, vj),
                          ambiguity="pm+")
    assert (entry.conjugation, entry.ambiguity) == ((x, vj), "pm+")
    assert entry.lhs is entry.rhs is entry.vector is None
    entry = RelationEntry("W1", "word", word, rhs=word)
    assert entry.lhs is word and entry.rhs is word
    assert entry.vector is entry.conjugation is entry.ambiguity is None


class TestParseRelations:
    def test_basic(self):
        entries = parse_relations(
            "# a comment\n"
            "a1 a2 a1 = a2 a1 a2\n"
            "\n"
            "u1 e1 = e1 u1  # trailing comment\n"
        )
        assert [e.rid for e in entries] == ["X2", "X4"]
        assert display(entries[0].lhs) == "a1 a2 a1"
        assert display(entries[1].rhs) == "e1 u1"

    def test_missing_equals(self):
        with pytest.raises(ValueError):
            parse_relations("a1 a2")
