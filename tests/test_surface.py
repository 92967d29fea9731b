"""Surface specs, generator alphabets, words and the representation."""

import pickle

import pytest

from mcgtwist.catalog import build_catalog
from mcgtwist.chains import ChainSpace
from mcgtwist.errors import SpecInvalid, UnknownDerived, UnknownLetter
from mcgtwist.surface import (
    FLAVORS,
    INVOLUTION_KINDS,
    Gen,
    SurfaceSpec,
    Word,
    build_representation,
    evaluate_word,
)
from mcgtwist.verify import faulty_representation
from helpers import (
    column,
    dense,
    derived_word,
    display,
    expand_word,
    identity,
    matmul,
    reduced,
    to_dense,
)

SPECS = [
    SurfaceSpec.make(3, 1, 0),
    SurfaceSpec.make(3, 0, 2, 0, "pmk"),
    SurfaceSpec.make(4, 1, 2, 1, "pmk"),
    SurfaceSpec.make(5, 0, 2, flavor="m"),
    SurfaceSpec.make(7, 2, 3, flavor="m"),
    SurfaceSpec.make(9, 3, 3, 0, "pmk"),
    SurfaceSpec.make(6, 2, 0),
]


class TestSpec:
    def test_validation(self):
        with pytest.raises(SpecInvalid):
            SurfaceSpec.make(2, 1, 0)
        with pytest.raises(SpecInvalid):
            SurfaceSpec.make(3, 0, 2, 3, "pmk")
        with pytest.raises(SpecInvalid):
            SurfaceSpec(3, 0, 2, 1, "pm+")
        with pytest.raises(SpecInvalid):
            SurfaceSpec.make(3, 0, 1, flavor="m")
        with pytest.raises(SpecInvalid):
            SurfaceSpec.make(3, 0, 0).require_free_module()

    @pytest.mark.parametrize("args, message", [
        ((3, 0, 1, 0, "pm"), "unknown flavor 'pm'"),
        ((2, 1, 0, 0, "pm+"), "genus must be at least 3"),
        ((3, -1, 0, 0, "pm+"),
         "boundary and puncture counts must be non-negative"),
        ((3, 0, 2, 3, "pmk"), "k must satisfy 0 <= k <= n"),
        ((3, 0, 2, 1, "pm+"),
         "flavor pm+ preserves orientation at all punctures (k = n)"),
        ((3, 0, 1, 0, "m"), "flavor m needs at least 2 punctures"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(SpecInvalid) as info:
            SurfaceSpec(*args)
        assert str(info.value) == message

    def test_value_semantics(self):
        spec = SurfaceSpec(7, 0, 2, 0, "pmk")
        same = SurfaceSpec.make(7, 0, 2, flavor="pmk")
        assert spec == same and spec is not same
        assert not spec != same
        assert hash(spec) == hash(same) == hash((7, 0, 2, 0, "pmk"))
        assert {spec: 1}[same] == 1
        assert len({spec, same, SurfaceSpec(7, 0, 2, 1, "pmk")}) == 2
        assert spec != (7, 0, 2, 0, "pmk")
        assert SurfaceSpec(3, 1, 0) == SurfaceSpec(3, 1, 0, 0, "pm+")
        assert repr(spec) == "SurfaceSpec(g=7, s=0, n=2, k=0, flavor='pmk')"
        assert (spec.g, spec.s, spec.n, spec.k, spec.flavor) == (
            7, 0, 2, 0, "pmk")
        with pytest.raises(AttributeError):
            spec.g = 8
        with pytest.raises(AttributeError):
            spec.extra = 1
        with pytest.raises(AttributeError):
            del spec.k
        assert spec == same and spec.g == 7
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_dimension(self):
        assert SurfaceSpec.make(3, 1, 0).d == 3
        assert SurfaceSpec.make(9, 3, 3, 0, "pmk").d == 14

    def test_alphabet_pm_plus(self):
        names = [g.name for g in SurfaceSpec.make(3, 1, 2).generators()]
        assert names == ["a1", "a2", "u1", "e1", "e2"]
        names = [g.name for g in SurfaceSpec.make(4, 2, 1).generators()]
        assert names == ["a1", "a2", "a3", "u1", "e1", "e2", "d1", "b1"]

    def test_alphabet_pmk(self):
        names = [g.name for g in SurfaceSpec.make(3, 0, 3, 1, "pmk").generators()]
        assert names == ["a1", "a2", "u1", "e1", "e2", "v2", "v3"]

    def test_alphabet_m(self):
        names = [g.name for g in SurfaceSpec.make(5, 0, 3, flavor="m").generators()]
        assert names == ["a1", "a2", "a3", "a4", "u1", "e1", "e2", "b1",
                         "v3", "s1", "s2"]

    def test_no_d_generators_above_genus_4(self):
        kinds = {g.kind for g in SurfaceSpec.make(5, 3, 1).generators()}
        assert "d" not in kinds


def test_gen_is_a_named_pair():
    gen = Gen(kind="v", index=3)
    kind, index = gen
    assert (kind, index) == ("v", 3) == gen
    assert gen == Gen("v", 3) and hash(gen) == hash(("v", 3))
    assert gen.kind == "v" and gen.index == 3 and gen.name == "v3"
    assert repr(gen) == "Gen(kind='v', index=3)"
    assert not hasattr(gen, "__dict__")
    with pytest.raises(AttributeError):
        gen.index = 4


class TestWord:
    def test_parse_display(self):
        w = Word.parse("a1 a2 u1^-1")
        assert display(w) == "a1 a2 u1^-1"
        assert w == Word.of(Gen("a", 1), Gen("a", 2), (Gen("u", 1), -1))

    def test_parse_error(self):
        with pytest.raises(UnknownLetter):
            Word.parse("x7")

    def test_inverse_and_reduction(self):
        w = Word.parse("a1 a2")
        assert reduced(w * w.inverse()) == Word(())
        assert (w ** -2) == (w ** 2).inverse()

    def test_power(self):
        assert display(Word.parse("a1") ** 3) == "a1 a1 a1"


@pytest.mark.parametrize("spec", SPECS, ids=str)
class TestRepresentation:
    def test_unimodular_with_exact_inverses(self, spec):
        """psi @ psi^-1 = I over the integers forces det psi = +-1."""
        rep = build_representation(spec)
        ident = identity(spec.d)
        for gen in spec.generators():
            assert matmul(dense(rep, gen), dense(rep, gen, -1)) == ident

    def test_involutions(self, spec):
        rep = build_representation(spec)
        ident = identity(spec.d)
        for gen in spec.generators():
            if gen.kind in INVOLUTION_KINDS:
                assert matmul(dense(rep, gen), dense(rep, gen)) == ident


def all_specs(genera):
    """Every spec of the given genera with s 0-3, n 0-3 and s+n >= 1:
    every k for the fixed-puncture flavors, and flavor m for n >= 2."""
    for g in genera:
        for s in range(4):
            for n in range(4):
                for flavor in FLAVORS:
                    if flavor == "m":
                        if n >= 2:
                            yield SurfaceSpec.make(g, s, n, flavor="m")
                    elif s + n >= 1:
                        for k in range(n) if flavor == "pmk" else (None,):
                            yield SurfaceSpec.make(g, s, n, k, flavor)


def test_each_letter_step_is_undone_by_its_inverse():
    # The inverses are formed by generator kind, not by elimination:
    # 470 specs, g 3-12, every generator, both orders.
    count = 0
    for spec in all_specs(range(3, 13)):
        count += 1
        rep = build_representation(spec)
        ident = [{r: 1} for r in range(spec.d)]
        for gen in spec.generators():
            for first in (1, -1):
                q = rep.apply_letter(ident, gen, first)
                assert rep.apply_letter(q, gen, -first) == ident, (spec, gen)
    assert count == 470


def test_moved_rows_are_canonical():
    # 470 specs, g 3-12: rows and nonzero columns ascending, and only
    # rows that differ from the identity.  A transvection and its
    # inverse move the same rows; an involution's inverse is its rows.
    for spec in all_specs(range(3, 13)):
        rep = build_representation(spec)
        gens = spec.generators()
        assert set(rep.moved) == {(gen, e) for gen in gens for e in (1, -1)}
        for (gen, _), rows in rep.moved.items():
            assert [r for r, _ in rows] == sorted({r for r, _ in rows})
            for r, entries in rows:
                assert 0 <= r < spec.d and entries != ((r, 1),), (spec, gen)
                cols = [c for c, _ in entries]
                assert cols == sorted(set(cols)), (spec, gen)
                assert all(0 <= c < spec.d and v for c, v in entries)
        for gen in gens:
            forward, inverse = rep.moved[gen, 1], rep.moved[gen, -1]
            if gen.kind in INVOLUTION_KINDS:
                assert inverse is forward
            else:
                assert [r for r, _ in inverse] == [r for r, _ in forward]


def dense_product(rep, word):
    """Reference for evaluate_word: the dense product of the generator
    matrices, left to right, after expanding derived letters."""
    out = identity(rep.d)
    for gen, e in expand_word(word, rep.spec):
        out = matmul(out, dense(rep, gen, e))
    return out


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_evaluate_word_matches_dense_product(spec):
    # Every catalog word and its inverse, the derived letters u_i, e_0
    # and e_{s+n}, and one word through every generator with inverses.
    rep = build_representation(spec)
    words = [Word.parse(name) for name in
             ["u%d" % i for i in range(2, spec.g)]
             + ["e0", "e%d" % (spec.s + spec.n)]]
    words.append(Word((gen, (-1) ** t) for t, gen in enumerate(spec.generators())))
    for entry in build_catalog(spec, ChainSpace(spec)):
        if entry.kind == "word":
            words += [entry.lhs, entry.rhs]
    for word in words:
        for w in (word, word.inverse()):
            value = to_dense(evaluate_word(rep, w), spec.d)
            assert value == dense_product(rep, w), display(w)


def test_a_matrix_values():
    spec = SurfaceSpec.make(3, 1, 0)
    rep = build_representation(spec)
    assert dense(rep, Gen("a", 1)) == [[0, 1, 0], [-1, 2, 0], [0, 0, 1]]
    assert dense(rep, Gen("u", 1)) == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def test_e_matrix_values():
    spec = SurfaceSpec.make(3, 0, 3, 0, "pmk")
    rep = build_representation(spec)
    m = dense(rep, Gen("e", 2))
    assert column(m, 0) == [0, -1, 0, -1, -1]
    assert column(m, 1) == [1, 2, 0, 1, 1]
    assert column(m, 2) == [0, 0, 1, 0, 0]


def test_derived_words():
    # Each u_i acts, in closed form, as the involution its word gives;
    # e_0 acts as a_1; and a letter with no derived word raises, as the
    # word reference does.
    spec = SurfaceSpec.make(5, 1, 0)
    rep = build_representation(spec)
    ident = identity(spec.d)
    for i in (2, 3, 4):
        m = to_dense(evaluate_word(rep, Word.parse("u%d" % i)), spec.d)
        assert matmul(m, m) == ident
        assert m == dense_product(rep, derived_word(Gen("u", i), spec))
    assert (evaluate_word(rep, Word.parse("e0 e0^-1 e0"))
            == evaluate_word(rep, Word.parse("a1")))
    for name, error in (("u9", UnknownDerived), ("v1", UnknownLetter)):
        with pytest.raises(error):
            derived_word(Word.parse(name)[0][0], spec)
        with pytest.raises(error):
            evaluate_word(rep, Word.parse(name))
    assert derived_word(Gen("e", 0), spec) == Word.of(Gen("a", 1))


def test_outer_twist_is_conjugate_of_a1():
    # The rows the representation keeps for e_{s+n} against the dense
    # product of W a_1^-1 W^-1, W expanded down to the alphabet.
    spec = SurfaceSpec.make(4, 2, 1)
    rep = build_representation(spec)
    w = Word.parse("a2 a3 u3 u2")
    e_out = Word.of(Gen("e", spec.s + spec.n))
    lhs = to_dense(evaluate_word(rep, e_out), spec.d)
    rhs = matmul(matmul(dense_product(rep, w), dense(rep, Gen("a", 1), -1)),
                 dense_product(rep, w.inverse()))
    assert lhs == rhs


def test_chain_relation_genus_3():
    spec = SurfaceSpec.make(3, 1, 1)
    rep = build_representation(spec)
    sn = spec.s + spec.n
    lhs = Word.of(Gen("u", 1), Gen("e", sn)) ** 2
    rhs = Word.of(Gen("a", 1), Gen("a", 2)) ** 6
    assert evaluate_word(rep, lhs) == evaluate_word(rep, rhs)


def test_lantern_relation():
    spec = SurfaceSpec.make(4, 1, 3, flavor="m")
    rep = build_representation(spec)
    s = spec.s
    for j in range(1, spec.n):
        lhs = Word.of(Gen("e", s + j - 1), Gen("e", s + j + 1), Gen("s", j))
        rhs = (Word.of(Gen("e", s + j)) * Word.of(Gen("s", j)) ** 3
               * Word.of(Gen("e", s + j)))
        assert evaluate_word(rep, lhs) == evaluate_word(rep, rhs)


def test_expand_word_leaves_alphabet_letters():
    spec = SurfaceSpec.make(5, 0, 1)
    expanded = expand_word(Word.parse("a1 u2 e1"), spec)
    assert all(g.kind != "u" or g.index == 1 for g, _ in expanded)


def test_sign_variant_breaks_braid_involution_checks():
    # The deliberately flipped braid sign keeps the matrix invertible
    # but is caught by the boundary consistency checks in `chains`.
    # Only the last braid's rows change.
    spec = SurfaceSpec.make(5, 1, 3, flavor="m")
    good = build_representation(spec)
    bad = faulty_representation(spec, "s")
    last = Gen("s", spec.n - 1)
    assert good.moved[last, 1] != bad.moved[last, 1]
    assert ({key: rows for key, rows in bad.moved.items() if key[0] != last}
            == {key: rows for key, rows in good.moved.items()
                if key[0] != last})
