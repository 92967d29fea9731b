"""The quotient pipeline: invariants, named bases, sampling."""

import os
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcgtwist.engine
from mcgtwist.catalog import (
    RelationEntry,
    build_catalog,
    k1_ambiguity_basis,
    parse_relations,
    pmplus_ambiguity_basis,
)
from mcgtwist.certify import oracle
from mcgtwist.chains import (
    ChainSpace,
    boundary1,
    boundary_witnesses,
    cycle_lattice,
    kernel_generator_list,
    rewrite_relation_all,
)
from mcgtwist.engine import (
    RelationSystem,
    SampleMatrix,
    UnitElimination,
    build_relation_system,
    compute_h1,
    express_class,
    named_candidates,
    require_cycle,
)
from mcgtwist.errors import NotACycle, RelationOutsideKernel, UnstableSampling
from mcgtwist.intlin import (
    AbelianInvariants,
    Echelon,
    gf2_insert,
    parity_mask,
    snf_factors,
    vec_axpy,
)
from mcgtwist.surface import PMPLUS_KINDS, SurfaceSpec, Word
from helpers import (
    closed_form_slide_chain,
    exact_echelon,
    extended,
    k1_single_classes_reference,
    kept_instances_reference,
    lattice_coords,
    pmplus_kernel_reference,
    same_lattice,
    solver_instances,
)
from make_relation_manifest import manifest_lines
from test_acceptance import (
    PAST_GRID_SPECS,
    PER_SPEC_BUDGET_SECONDS,
    permutation_grid,
    twist_grid,
)


def names(result):
    return [name for name, _ in result.named_basis]


class TestKnownGroups:
    def test_genus3_one_boundary(self):
        result = compute_h1(SurfaceSpec.make(3, 1, 0))
        assert result.invariants.torsion == (2, 2, 2)
        assert result.invariants.free_rank == 0
        assert names(result) == ["a_{1,1}+a_{1,2}", "a_{1,3}", "u_{1,3}"]

    def test_genus7_two_punctures(self):
        result = compute_h1(SurfaceSpec.make(7, 0, 2, 0, "pmk"))
        assert result.invariants.torsion == (2, 2, 2, 2)
        assert result.invariants.free_rank == 0

    def test_genus5_permutable_punctures(self):
        result = compute_h1(SurfaceSpec.make(5, 0, 2, flavor="m"))
        assert result.invariants.torsion == (2,) * 5
        assert names(result) == [
            "a_{1,3}", "u_{1,3}", "b_{1,1}-a_{1,1}-a_{3,3}",
            "v_{2,1}", "s_{1,1}",
        ]

    def test_every_class_has_order_two(self):
        for spec in (SurfaceSpec.make(4, 2, 1, 0, "pmk"),
                     SurfaceSpec.make(3, 2, 2, flavor="m")):
            result = compute_h1(spec)
            assert result.invariants.is_elementary_two_group()


class TestSampling:
    def test_report(self):
        quiet = compute_h1(SurfaceSpec.make(3, 1, 0))
        assert quiet.sampling_report.samples == 1
        assert quiet.sampling_report.stable
        sampled = compute_h1(SurfaceSpec.make(5, 0, 2, 0, "pmk"))
        assert sampled.sampling_report.samples == 17
        assert sampled.sampling_report.stable

    def test_seed_determinism(self):
        spec = SurfaceSpec.make(4, 0, 2, 0, "pmk")
        a = compute_h1(spec, seed=0)
        b = compute_h1(spec, seed=0)
        c = compute_h1(spec, seed=12345)
        assert a.invariants == b.invariants == c.invariants
        assert names(a) == names(b) == names(c)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            compute_h1(SurfaceSpec.make(3, 1, 0), samples=0)

    def test_one_sample_runs_sample_zero_only(self, monkeypatch):
        spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return snf_factors(rows)

        monkeypatch.setattr(mcgtwist.engine, "snf_factors", counted)
        result = compute_h1(spec, samples=1)
        assert result.system.partials
        assert result.sampling_report.samples == 1
        assert len(calls) == 1
        assert result.invariants == oracle(spec)


class TestExpressClass:
    def test_relation_vector_is_zero(self):
        spec = SurfaceSpec.make(3, 0, 2, 0, "pmk")
        result = compute_h1(spec)
        for _, vec in result.system.exact[:20]:
            assert express_class(result, vec) == {}

    def test_slide_class_is_basis_element(self):
        spec = SurfaceSpec.make(3, 0, 2, 0, "pmk")
        result = compute_h1(spec)
        chain = result.system.space.chain([("v", 1, 1, 1)])
        assert express_class(result, chain) == {"v_{1,1}": 1}

    def test_crosscap_pair_dies_at_genus_4(self):
        spec = SurfaceSpec.make(4, 1, 0)
        result = compute_h1(spec)
        chain = result.system.space.chain([("a", 1, 1, 1), ("a", 1, 2, 1)])
        assert express_class(result, chain) == {}

    def test_combination(self):
        spec = SurfaceSpec.make(3, 1, 0)
        result = compute_h1(spec)
        chain = result.system.space.chain(
            [("a", 1, 3, 1), ("u", 1, 3, 1)]
        )
        assert express_class(result, chain) == {"a_{1,3}": 1, "u_{1,3}": 1}

    def test_non_cycle_raises(self):
        result = compute_h1(SurfaceSpec.make(3, 1, 0))
        chain = result.system.space.chain([("a", 1, 1, 1)])
        with pytest.raises(NotACycle, match="not in the cycle lattice"):
            express_class(result, chain)


def gf2_dimension(invariants):
    return invariants.free_rank + sum(
        1 for t in invariants.torsion if t % 2 == 0
    )


def test_dropping_any_import_never_shrinks_the_group(monkeypatch):
    spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
    full = compute_h1(spec)
    base_dim = gf2_dimension(full.invariants)
    build_catalog = mcgtwist.engine.build_catalog
    for family in ("I1", "I2", "I3", "I4", "I5", "I6", "I7"):
        def without(spec, space=None, family=family):
            return [entry for entry in build_catalog(spec, space)
                    if entry.rid.split(":")[0] != family]

        monkeypatch.setattr(mcgtwist.engine, "build_catalog", without)
        partial = compute_h1(spec)
        assert len(partial.system.catalog) < len(full.system.catalog), family
        assert gf2_dimension(partial.invariants) >= base_dim, family


def redundant_relations(spec, rng, conjugates=3, products=2):
    """Consequences of the catalog's word relations: conjugates
    x l x^-1 = x r x^-1 of a relation l = r by a letter x of the
    alphabet, and products l l' = r r' of two relations."""
    words = [(e.lhs, e.rhs) for e in build_catalog(spec) if e.kind == "word"]
    letters = spec.generators()
    out = []
    for _ in range(conjugates):
        lhs, rhs = rng.choice(words)
        x = Word.of((rng.choice(letters), rng.choice((1, -1))))
        out.append((x * lhs * x.inverse(), x * rhs * x.inverse()))
    for _ in range(products):
        (lhs, rhs), (lhs2, rhs2) = rng.choice(words), rng.choice(words)
        out.append((lhs * lhs2, rhs * rhs2))
    return [RelationEntry("X%d" % t, "word", lhs=lhs, rhs=rhs)
            for t, (lhs, rhs) in enumerate(out, 1)]


def test_extra_redundant_relation_changes_nothing():
    # A relation the catalog already implies changes no invariant and
    # no named basis: a braid relation, and on 60 seeded grid specs
    # seeded conjugates and products of catalog word relations.
    rng = random.Random(0)
    cases = [(SurfaceSpec.make(3, 1, 0), parse_relations("a1 a2 a1 = a2 a1 a2"))]
    for spec in rng.sample(list(twist_grid()) + list(permutation_grid()), 60):
        cases.append((spec, redundant_relations(spec, rng)))
    for spec, extra in cases:
        plain = compute_h1(spec)
        again = compute_h1(spec, extra_relations=extra)
        assert again.invariants == plain.invariants, spec
        assert names(again) == names(plain), spec


def test_false_relation_is_rejected():
    spec = SurfaceSpec.make(3, 1, 0)
    with pytest.raises(RelationOutsideKernel):
        compute_h1(spec, extra_relations=parse_relations("a1 = a2"))


def test_candidate_counts_match_closed_form():
    specs = [
        SurfaceSpec.make(3, 0, 2, 0, "pmk"),
        SurfaceSpec.make(3, 2, 1, 1, "pm+"),
        SurfaceSpec.make(4, 1, 2, 0, "pmk"),
        SurfaceSpec.make(6, 0, 3, 1, "pmk"),
        SurfaceSpec.make(7, 1, 1, 1, "pm+"),
        SurfaceSpec.make(3, 1, 2, flavor="m"),
        SurfaceSpec.make(4, 0, 2, flavor="m"),
        SurfaceSpec.make(9, 2, 3, flavor="m"),
    ]
    for spec in specs:
        count = len(named_candidates(ChainSpace(spec)))
        assert count == len(oracle(spec).torsion), spec


def test_partial_rows_escape_ambiguity():
    system = build_relation_system(SurfaceSpec.make(5, 0, 2, 0, "pmk"))
    assert system.partials
    for key, chains in system.ambiguity_chains.items():
        amb = Echelon(dict(c) for c in chains)
        for p in system.partials:
            if p.ambiguity == key:
                assert not amb.contains(p.base), p.rid


# The kept instance ids, pinned from the filter as it stood inside
# build_relation_system.  (6,0,2,0,pmk) is a g=5/6 spec where the pm+
# ambiguity has two directions outside the rational span of the exact
# relations, which lie in the span of the kept k1 rows.
KEPT_RIDS = {
    (3, 0, 1, 0, "pmk"): ["R14:1:2:xi2"],
    (5, 1, 1, 0, "pmk"): ["R14:1:2:xi2", "R14:1:3:xi3", "R14:1:4:xi4",
                          "R15:1:1:xi1", "I5:5"],
    (6, 2, 3, None, "m"): ["R14:3:2:xi2", "R14:3:3:xi3", "R14:3:4:xi4",
                           "R14:3:5:xi5", "R15:3:1:xi1", "R15:3:2:xi1",
                           "R15:3:3:xi1", "R15:3:4:xi1", "I5:5", "I5:6"],
    (6, 0, 2, 0, "pmk"): ["R14:1:2:xi2", "R14:1:3:xi3", "R14:1:4:xi4",
                          "R14:1:5:xi5", "R15:1:1:xi1", "R14:2:2:xi2",
                          "R14:2:3:xi3", "R14:2:4:xi4", "R14:2:5:xi5",
                          "R15:2:1:xi1", "I5:5", "I5:6"],
}


@pytest.mark.parametrize("args", list(KEPT_RIDS), ids=str)
def test_partial_filter_is_unchanged_and_maximal(args):
    system = build_relation_system(SurfaceSpec.make(*args))
    assert [p.rid for p in system.partials] == KEPT_RIDS[args]
    if args == (6, 0, 2, 0, "pmk"):
        # The pm+ ambiguity leaves span_Q(E) in two directions, and the
        # kept k1 rows span the same two.
        exact = [vec for _, vec in system.exact]
        pm = system.ambiguity_chains["pm+"]
        k1 = [p.base for p in system.partials if p.ambiguity == "k1"]
        ranks = {Echelon(exact + extra).rank for extra in (pm, k1, pm + k1)}
        assert ranks == {exact_echelon(system).rank + 2}
    # Every dropped instance lies in E + A, the integer span of the
    # exact chains and its key's ambiguity chains.
    kept = {id(p) for p in system.partials}
    dropped = [p for p in system.instances if id(p) not in kept]
    assert dropped
    for key, chains in system.ambiguity_chains.items():
        span = Echelon([vec for _, vec in system.exact] + chains)
        for p in dropped:
            if p.ambiguity == key:
                assert span.contains(p.base), p.rid


def answers(result):
    """The invariants, the named basis and the set of kept rids."""
    return (result.invariants, names(result),
            sorted(p.rid for p in result.system.partials))


def rebuilt(monkeypatch, change):
    """Make compute_h1 apply `change` to each system it builds, before
    anything is read from it."""
    def changed(spec, extra_relations=None):
        system = build_relation_system(spec, extra_relations)
        change(system)
        return system

    monkeypatch.setattr(mcgtwist.engine, "build_relation_system", changed)


BENCH_SPECS = (list(twist_grid()) + list(permutation_grid()))[::6]


def test_pinned_rows_count_only_modulo_their_ambiguity_lattice(monkeypatch):
    # A pinned row is known only modulo its key's ambiguity lattice A, so
    # moving each by a seeded random +-combination of its key's basis
    # chains changes no kept rid, no invariant and no named basis.  A
    # filter that tests against the exact lattice alone keeps shifted
    # rows that lie in E + A.  The 55 benchmark specs.
    rng = random.Random(0)

    def shift(system):
        for p in system.instances:
            p.base = dict(p.base)
            for chain in system.ambiguity_chains[p.ambiguity]:
                vec_axpy(p.base, chain, rng.choice((-1, 0, 1)))

    plain = [answers(compute_h1(spec)) for spec in BENCH_SPECS]
    rebuilt(monkeypatch, shift)
    assert [answers(compute_h1(spec)) for spec in BENCH_SPECS] == plain


def test_instance_order_changes_nothing(monkeypatch):
    # The filter keeps each instance on its own, so seeded shuffles of
    # `instances` give the same kept rids, invariants and named basis.
    # The 55 benchmark specs, three orders each.
    rng = random.Random(0)
    plain = [answers(compute_h1(spec)) for spec in BENCH_SPECS]
    rebuilt(monkeypatch, lambda system: rng.shuffle(system.instances))
    for _ in range(3):
        assert [answers(compute_h1(spec)) for spec in BENCH_SPECS] == plain


def test_no_instance_is_built_at_a_coefficient_the_letter_fixes():
    # A slide conjugation x v_j = v_j y builds one instance, at the first
    # coefficient xi that x moves (xi_i for a_i, xi_1 for e_i), and none
    # at the coefficients x fixes or at the other one it moves; its chain
    # is the closed form sum_r w_r v~(j, r), w = B_x xi.  The grid and
    # four specs past it.
    specs = list(twist_grid()) + list(permutation_grid())
    specs += [SurfaceSpec.make(g, 3, 3, 0, "pmk") for g in (10, 11, 12)]
    specs.append(SurfaceSpec.make(10, 3, 3, flavor="m"))
    skipped = 0
    for spec in specs:
        system = build_relation_system(spec)
        space = system.space
        expected = []
        for entry in system.catalog:
            if entry.conjugation is None:
                continue
            x, vj = entry.conjugation
            moved = [xi for xi in range(1, space.d + 1)
                     if space._bcol[x][xi - 1]]
            first = x.index if x.kind == "a" else 1
            assert moved == [first, first + 1], entry.rid
            expected.append(("%s:xi%d" % (entry.rid, first),
                             closed_form_slide_chain(space, x, vj, first)))
            skipped += space.d - 1
        assert [(p.rid, p.base) for p in system.instances
                if p.ambiguity == "pm+"] == expected, spec
    assert skipped > 25000


def test_closed_form_slide_chains_agree_with_the_solver_path():
    # The pm+ boundary solver pins each slide conjugation at every
    # coefficient x moves (`helpers.solver_instances`).  Against it, at
    # each such coefficient the closed-form chain less the solver's lies
    # in the pm+ ambiguity lattice A (it is a cycle on the pm+ kinds),
    # the solver's chains at the two moved coefficients sum into A, and
    # the filter in all dim coordinates over the solver's instances keeps
    # the rids the system keeps.  The grid and the specs past it.
    def in_pmplus_lattice(space, chain):
        return not boundary1(space, chain) and all(
            space.unflat(c)[0].kind in PMPLUS_KINDS for c in chain)

    checked = 0
    for spec in list(twist_grid()) + list(permutation_grid()) + PAST_GRID_SPECS:
        system = build_relation_system(spec)
        space = system.space
        reference = solver_instances(system)
        slides = {}
        for p in reference:
            if p.ambiguity == "pm+":
                slides.setdefault(p.rid.rsplit(":", 1)[0], []).append(p)
        for entry in system.catalog:
            if entry.conjugation is None:
                continue
            x, vj = entry.conjugation
            pinned = slides[entry.rid]
            assert len(pinned) == 2, entry.rid
            for p in pinned:
                xi = int(p.rid.rsplit(":xi", 1)[1])
                diff = closed_form_slide_chain(space, x, vj, xi)
                vec_axpy(diff, p.base, -1)
                assert in_pmplus_lattice(space, diff), p.rid
            total = dict(pinned[0].base)
            vec_axpy(total, pinned[1].base, 1)
            assert in_pmplus_lattice(space, total), entry.rid
            checked += 1
        kept = kept_instances_reference(RelationSystem(
            space, system.catalog, system.rank, system.exact, reference,
            system.ambiguity_chains))
        assert ([p.rid for p in kept]
                == [p.rid for p in system.partials]), spec
    assert checked > 2000


def test_partial_filter_matches_the_full_coordinate_filter():
    # The filter asks its span question in the coordinates left after
    # the unit elimination, each instance against E + A alone; it must
    # keep the same PartialRow objects, in the same order, as the
    # sequential filter in all dim coordinates, which asks against
    # E + A + the rows of the key kept before.  The two agree because
    # the kept rows of each key are independent modulo E + A: entered
    # into the key's fixed echelon, they raise its rank by their number.
    # The 55 benchmark specs (every sixth grid spec) and three past the
    # grid.
    specs = (list(twist_grid()) + list(permutation_grid()))[::6]
    assert len(specs) == 55
    specs += [SurfaceSpec.make(10, 3, 3, 0, "pmk"),
              SurfaceSpec.make(12, 3, 3, 0, "pmk"),
              SurfaceSpec.make(10, 3, 3, flavor="m")]
    for spec in specs:
        system = build_relation_system(spec)
        expected = kept_instances_reference(system)
        assert ([id(p) for p in system.partials]
                == [id(p) for p in expected]), spec
        elim = system.elimination
        for key, (_, groups) in elim.ambiguity.items():
            span = Echelon(elim.base + [image for _, image in groups])
            rows = [p.projected for p in system.partials if p.ambiguity == key]
            assert extended(span, rows).rank == span.rank + len(rows), spec


def test_pmplus_ambiguity_basis_is_the_boundary_solver_kernel():
    # The closed-form pm+ basis, K1-K11, spans the kernel of the pm+
    # boundary solver, and each member is a cycle on the pm+ kinds.  The
    # grid and the specs past it.
    for spec in list(twist_grid()) + list(permutation_grid()) + PAST_GRID_SPECS:
        space = ChainSpace(spec)
        basis = pmplus_ambiguity_basis(space)
        assert same_lattice(Echelon(basis),
                            Echelon(pmplus_kernel_reference(space))), spec
        for chain in basis:
            assert not boundary1(space, chain), spec
            assert all(space.unflat(c)[0].kind in PMPLUS_KINDS
                       for c in chain), spec


def test_pmplus_ambiguity_basis_is_the_family_on_the_pmplus_kinds():
    # Chain for chain and in order, the closed-form pm+ basis is the
    # members of the explicit cycle family that lie wholly on the pm+
    # kinds, so a draw's bit t adds the same chain as when the basis was
    # filtered from the family.  The grid and the specs past it.
    for spec in list(twist_grid()) + list(permutation_grid()) + PAST_GRID_SPECS:
        space = ChainSpace(spec)
        on_kinds = [chain for _, chain in kernel_generator_list(space)
                    if all(space.unflat(c)[0].kind in PMPLUS_KINDS
                           for c in chain)]
        assert pmplus_ambiguity_basis(space) == on_kinds, spec


def test_closed_form_ambiguity_bases_change_no_span_and_no_kept_instance():
    # The k1 basis gives the single classes a_{j,i} modulo the exact
    # lattice: with the exact chains both span one lattice.  The filter
    # in all dim coordinates, run with the computed pm+ kernel and every
    # single class, keeps the instances the system keeps.  The grid and
    # the specs past it.
    for spec in list(twist_grid()) + list(permutation_grid()) + PAST_GRID_SPECS:
        system = build_relation_system(spec)
        space = system.space
        exact = exact_echelon(system)
        singles = k1_single_classes_reference(space)
        assert same_lattice(extended(exact, k1_ambiguity_basis(space)),
                            extended(exact, singles)), spec
        computed = {"k1": singles}
        if "pm+" in system.ambiguity_chains:
            computed["pm+"] = pmplus_kernel_reference(space)
        assert ([p.rid for p in kept_instances_reference(system, computed)]
                == [p.rid for p in system.partials]), spec


def test_each_chain_is_projected_once_per_system(monkeypatch):
    # The elimination is built once per system; its first read projects
    # every ambiguity chain, and the filter every instance, once.
    spec = SurfaceSpec.make(5, 1, 1, 0, "pmk")
    built, projected = [], []
    init, call = UnitElimination.__init__, UnitElimination.__call__

    def counted_init(elim, *args):
        built.append(elim)
        init(elim, *args)

    def counted_call(elim, coords):
        projected.append(coords)
        return call(elim, coords)

    monkeypatch.setattr(UnitElimination, "__init__", counted_init)
    monkeypatch.setattr(UnitElimination, "__call__", counted_call)
    system = compute_h1(spec).system
    chains = [c for cs in system.ambiguity_chains.values() for c in cs]
    chains += [p.base for p in system.instances]
    assert len(system.ambiguity_chains) == 2 and system.partials
    for chain in chains:
        assert sum(c is chain for c in projected) == 1
    assert built == [system.elimination]


def mixed_lattice(diag, rnd, drop, extra, ops=None):
    """Rows spanning a lattice in Z^len(diag) whose quotient is the sum
    of Z/d over diag: the diagonal, moved by `ops` (default 3 * rank)
    random unimodular column operations and mixed by as many random row
    operations.  `drop` removes one row (rank-deficient); `extra`
    appends a dependent row."""
    r = len(diag)
    rows = [[d if i == j else 0 for j in range(r)] for i, d in enumerate(diag)]
    if r >= 2:
        for _ in range(3 * r if ops is None else ops):
            i, j = rnd.sample(range(r), 2)
            q = rnd.choice((-2, -1, 1, 2))
            for row in rows:  # column j += q * column i
                row[j] += q * row[i]
            i, j = rnd.sample(range(r), 2)
            q = rnd.choice((-2, -1, 1, 2))
            rows[j] = [a + q * b for a, b in zip(rows[j], rows[i])]
    if extra and rows:
        rows.append([a - b for a, b in zip(rows[0], rows[-1])])
    if drop and rows:
        rows.pop(rnd.randrange(len(rows)))
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def spec_id(spec):
    return "%d,%d,%d,%d,%s" % (spec.g, spec.s, spec.n, spec.k, spec.flavor)


# g 10-12 lie past the acceptance grid; there an integer echelon per sample
# grows its coefficients to hundreds of thousands of bits.
@pytest.mark.parametrize(
    "spec", [SurfaceSpec.make(g, 3, 3, 0, "pmk") for g in range(9, 13)],
    ids=spec_id,
)
def test_largest_pmk_spec_within_budget_at_every_seed(spec):
    # The sampling seed changes the shifted partial rows and so the cost
    # of the quotient; the per-spec budget must hold at each seed.
    for seed in range(8):
        start = time.perf_counter()
        result = compute_h1(spec, seed=seed)
        seconds = time.perf_counter() - start
        assert result.invariants == oracle(spec), seed
        assert seconds <= PER_SPEC_BUDGET_SECONDS, (seed, seconds)


@settings(max_examples=300, deadline=None)
@given(
    diag=st.lists(st.sampled_from((1, 1, 2, 3, 4, 6)), max_size=7),
    seed=st.integers(0, 2**32 - 1),
    ops=st.integers(0, 12),
    drop=st.booleans(),
    extra=st.booleans(),
)
@example(diag=[], seed=0, ops=0, drop=False, extra=False)
@example(diag=[1, 2, 1, 4], seed=1, ops=2, drop=False, extra=False)
@example(diag=[1, 3, 1, 2, 1], seed=2, ops=4, drop=True, extra=True)
# A pivot of 2 in the exact part: it must stay in `base`.
@example(diag=[2], seed=0, ops=0, drop=False, extra=False)
# Unit pivots whose rows meet each other's pivot columns: they stay in
# `base` too.
@example(diag=[1, 1, 1], seed=0, ops=0, drop=False, extra=True)
def test_unit_elimination_agrees_with_smith_form(diag, seed, ops, drop, extra):
    """Split sparse generators into "exact" rows, which are eliminated,
    and rows projected afterwards, as a sample does; the Smith form of
    the projected rows must give the invariants of the full rows."""
    rnd = random.Random(seed)
    rank = len(diag)
    perm = rnd.sample(range(rank), rank)
    rows = [{perm[c]: v for c, v in row.items()}
            for row in mixed_lattice(diag, rnd, drop, extra, ops)]
    rnd.shuffle(rows)
    split = rnd.randint(0, len(rows))
    elim = UnitElimination(rows[:split], rank, {})
    projected = elim.base + [elim(row) for row in rows[split:]]
    expected = AbelianInvariants.from_factors(snf_factors(rows), rank)
    assert AbelianInvariants.from_factors(
        snf_factors(projected), elim.rank) == expected


@st.composite
def forest_lattices(draw):
    """(exact, rest, n): sparse rows in Z^n, the exact ones mostly the
    rows the forest takes, +-e_a and +-e_a +- e_b, whose links close
    balanced and unbalanced cycles on few coordinates, with some 2 e_a
    and some general rows; `rest` holds general rows."""
    n = draw(st.integers(1, 6))
    coord = st.integers(0, n - 1)
    sign = st.sampled_from((1, -1))
    general = st.lists(st.sampled_from([0] * 6 + [1, -1, 1, -1, 2, -3]),
                       min_size=n, max_size=n).map(
        lambda row: {c: v for c, v in enumerate(row) if v})
    exact = []
    for kind in draw(st.lists(st.sampled_from("llllluug"), max_size=10)):
        a, b = draw(coord), draw(coord)
        if kind == "l" and a != b:
            exact.append({a: draw(sign), b: draw(sign)})
        elif kind == "u":
            exact.append({a: draw(sign) * draw(st.sampled_from((1, 1, 2)))})
        elif kind == "g":
            exact.append(draw(general))
    return exact, draw(st.lists(general, max_size=4)), n


def gf2_rank(rows, width):
    echelon = {}
    for row in rows:
        gf2_insert(echelon, parity_mask(row), (1 << width) - 1)
    return len(echelon)


@settings(max_examples=400, deadline=None)
@given(forest_lattices())
# An unbalanced triangle: e_0 = -e_1 = e_2 and e_0 = -e_2, so 2 e_0 = 0.
@example(([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], [], 3))
# A balanced triangle leaves one free coordinate.
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: -1, 2: 1}], [{0: 2}], 3))
# A unit row kills the component it joins later; a second one is spare.
@example(([{1: -1}, {0: 1, 1: 1}, {2: 1, 0: -1}, {2: 1}], [{0: 1, 3: 2}], 4))
# An unbalanced cycle whose root is later linked under a smaller one.
@example(([{2: 1, 3: 1}, {3: 1, 2: 1}, {2: 1, 3: -1}, {1: 1, 3: 1},
           {0: 2, 1: 1, 2: 1}], [{0: 1}], 4))
# Empty exact rows are residual, with an empty image, and add nothing.
@example(([{}, {0: 1, 1: -1}, {}], [{1: 2}, {}], 2))
def test_forest_elimination_agrees_with_smith_form(lattice):
    """The exact rows eliminated by the signed forest, the rest held in
    `base`, and the other rows projected, as a sample does: the
    projected rows must give the invariants of the full rows, and the
    same GF(2) rank of the quotient.  Taken as one ambiguity key, the
    other rows' images are grouped by value, each group's mask holding
    exactly the rows with that image."""
    exact, rest, n = lattice
    elim = UnitElimination(exact, n, {"key": rest})
    projected = elim.base + [elim(row) for row in rest]
    assert (AbelianInvariants.from_factors(snf_factors(projected), elim.rank)
            == AbelianInvariants.from_factors(snf_factors(exact + rest), n))
    assert (elim.rank - gf2_rank(projected, elim.rank)
            == n - gf2_rank(exact + rest, n))
    nbits, groups = elim.ambiguity["key"]
    assert nbits == len(rest)
    assert len({frozenset(image.items()) for _, image in groups}) == len(groups)
    masks = 0
    for mask, image in groups:
        assert image and not mask & masks
        masks |= mask
        assert all(elim(rest[t]) == image
                   for t in range(nbits) if mask >> t & 1)
    assert all(bool(elim(row)) == bool(masks >> t & 1)
               for t, row in enumerate(rest))


def test_grouped_draws_build_the_bit_by_bit_rows():
    # A sample adds each distinct projected ambiguity vector times the
    # number of drawn bits that have it, to the rows the fixed peel
    # leaves.  Those must be the rows the bit-by-bit draw (one image per
    # drawn bit, as before the grouping) builds from the same random
    # bits, with the peeled rows and columns deleted.  Every grid spec
    # with partial rows, 17 samples at seed 3.
    checked = 0
    for spec in list(twist_grid()) + list(permutation_grid()):
        system = build_relation_system(spec)
        elim, partials = system.elimination, system.partials
        if not partials:
            continue
        matrix = SampleMatrix(elim, partials)
        images = {key: [elim(chain) for chain in chains]
                  for key, chains in system.ambiguity_chains.items()}
        rng, reference = random.Random(3), random.Random(3)
        for m in range(17):
            rows = elim.base + [dict(p.projected) for p in partials]
            for i, p in enumerate(partials, len(elim.base)):
                basis = images[p.ambiguity]
                bits = reference.getrandbits(len(basis)) if m and basis else 0
                for t, image in enumerate(basis):
                    if bits >> t & 1:
                        vec_axpy(rows[i], image, 1)
            expected = [{c: v for c, v in rows[i].items()
                         if c not in matrix.cut} for i in matrix.rest]
            assert (matrix.rows(rng if m else None)
                    == [row for row in expected if row]), (spec, m)
        checked += 1
    assert checked > 150


def test_vacuous_draws_give_sample_zeros_rows():
    # Where `SampleMatrix.vacuous` holds, compute_h1 takes one Smith form
    # for all samples: every grid spec it marks must give sample 0's
    # rows in 17 draws, at seeds 0 and 7.
    marked = 0
    for spec in list(twist_grid()) + list(permutation_grid()):
        system = build_relation_system(spec)
        if not system.partials:
            continue
        matrix = SampleMatrix(system.elimination, system.partials)
        if not matrix.vacuous:
            continue
        marked += 1
        first = matrix.rows()
        for seed in (0, 7):
            rng = random.Random(seed)
            for m in range(1, 17):
                assert matrix.rows(rng) == first, (spec, seed, m)
    assert marked == 235


def test_express_class_rejects_a_chain_outside_the_space():
    # A coordinate outside range(dim) and a stored 0 are refused by name:
    # -1 would wrap to the last class, dim would raise a bare IndexError,
    # and a stored 0 is no chain of the space, at every coordinate.
    for spec in (SurfaceSpec.make(5, 1, 1), SurfaceSpec.make(3, 1, 0),
                 SurfaceSpec.make(4, 0, 2, flavor="m")):
        result = compute_h1(spec)
        dim = result.system.space.dim
        for chain in [{-1: 2}, {dim: 1}] + [{flat: 0} for flat in range(dim)]:
            (flat, value), = chain.items()
            message = r"\{%r: %r\}$" % (flat, value)
            with pytest.raises(NotACycle, match=message):
                express_class(result, chain)


def test_system_rank_is_the_cycle_lattice_rank():
    # RelationSystem.rank is dim - d, taken from the spec; it must be
    # the rank of the cycle lattice (every 12th grid spec and the specs
    # past the grid).  On every grid spec and past it, the boundary
    # columns of `boundary_witnesses` ([a_j] (x) xi_j, [u_1] (x) xi_1
    # and [e_j] (x) xi_1) are a Z-basis of the boundary image: d of
    # them, of rank d, with every boundary column of the space in their
    # span.
    grid = list(twist_grid()) + list(permutation_grid())
    for spec in grid[::12] + PAST_GRID_SPECS:
        system = build_relation_system(spec)
        assert system.rank == cycle_lattice(system.space).rank, spec
    for spec in grid + PAST_GRID_SPECS:
        space = ChainSpace(spec)
        witnesses = Echelon(space._bflat[c] for c in boundary_witnesses(space))
        assert witnesses.rank == spec.d, spec
        assert all(witnesses.contains(col) for col in space._bflat), spec


@pytest.mark.parametrize("spec", [SurfaceSpec.make(5, 1, 2, 1, "pmk"),
                                  SurfaceSpec.make(4, 1, 2, flavor="m")],
                         ids=spec_id)
def test_result_does_not_hold_the_family(spec):
    # The build takes the pm+ basis and the slide instances in closed
    # form, so the system compute_h1's result holds has no family.
    assert not hasattr(compute_h1(spec).system, "family")


def test_build_drops_the_fox_columns_it_rewrote_with():
    # The Fox columns of the derived letters are closed forms taken per
    # rewrite, so the space keeps none once the catalog is rewritten;
    # a later rewrite in the same space gives the same chains.
    system = build_relation_system(SurfaceSpec.make(9, 1, 3, flavor="m"))
    assert "_fox" not in vars(system.space)
    entry = next(e for e in system.catalog if e.rid == "R20:1")
    chains = rewrite_relation_all(system.space, entry.lhs, entry.rhs)
    assert [(entry.rid, c) for c in chains if c] == [
        (rid, vec) for rid, vec in system.exact if rid == entry.rid]


def test_relation_chains_match_the_manifest():
    # Every exact chain and pinned instance of the grid, in build order,
    # against the digests committed in relation_manifest.txt (written by
    # make_relation_manifest.py).
    path = os.path.join(os.path.dirname(__file__), "relation_manifest.txt")
    with open(path, encoding="utf-8") as handle:
        committed = handle.read().splitlines()
    assert len(committed) == 329
    assert list(manifest_lines()) == committed


def full_coordinate_sampler(system, samples, seed):
    """Reference for compute_h1: every sample and the named basis in the
    coordinates of a basis of the cycle lattice (`lattice_coords`), with
    no elimination, each sample's lattice held in its own echelon.
    Returns the invariants of each sample and the names of the named
    basis."""
    space = system.space
    lattice = cycle_lattice(space)
    rank = lattice.rank
    full = (1 << rank) - 1

    def coords(chain):
        return lattice_coords(space, lattice, chain)

    exact = [coords(vec) for _, vec in system.exact]
    ambiguity = {key: [coords(c) for c in chains]
                 for key, chains in system.ambiguity_chains.items()}
    base_gf2 = {}
    for c in exact:
        gf2_insert(base_gf2, parity_mask(c), full)
    base = Echelon(exact)
    rng = random.Random(seed)
    per_sample, kept = [], None
    for m in range(samples if system.partials else 1):
        ech = Echelon()
        ech.pivots = {j: dict(row) for j, row in base.pivots.items()}
        gf2 = dict(base_gf2)
        for p in system.partials:
            row = coords(p.base)
            if m:
                basis = ambiguity[p.ambiguity]
                bits = rng.getrandbits(len(basis)) if basis else 0
                while bits:
                    t = (bits & -bits).bit_length() - 1
                    vec_axpy(row, basis[t], 1)
                    bits &= bits - 1
            gf2_insert(gf2, parity_mask(row), full)
            ech.insert(row)
        per_sample.append(AbelianInvariants.from_factors(
            snf_factors(ech.pivots.values()), rank))
        if m == 0:
            kept = gf2
    named = []
    if per_sample[0].is_elementary_two_group():
        for t, (name, chain) in enumerate(named_candidates(space)):
            vec = parity_mask(coords(chain)) | (1 << (rank + t))
            if gf2_insert(kept, vec, full) & full:
                named.append(name)
    return per_sample, named


# Specs with partial rows whose draws change the sample matrix.
DRAWN_SPECS = [
    SurfaceSpec.make(5, 2, 3, 1, "pmk"),
    SurfaceSpec.make(6, 1, 2, flavor="m"),
]


@pytest.mark.parametrize("spec", [
    SurfaceSpec.make(9, 3, 3, 1, "pmk"),
    SurfaceSpec.make(9, 1, 3, flavor="m"),
    SurfaceSpec.make(4, 2, 3, 2, "pmk"),
    SurfaceSpec.make(3, 3, 3, 1, "pmk"),
    SurfaceSpec.make(7, 2, 2, 2, "pm+"),
] + DRAWN_SPECS, ids=spec_id)
def test_pipeline_matches_full_coordinate_sampler(spec, monkeypatch):
    # Each sample's Smith form sees only the rows the fixed peel leaves,
    # so its invariants are taken in the coordinates left after it.  On
    # a spec where no draw can change those rows, one Smith form is
    # taken, and every sample of the reference must have its invariants;
    # on `DRAWN_SPECS` each sample takes its own.
    system = build_relation_system(spec)
    elim = system.elimination
    matrix = SampleMatrix(elim, system.partials)
    assert matrix.vacuous == (spec not in DRAWN_SPECS)
    rank = elim.rank - len(matrix.cut)
    seen = []

    def recording(rows):
        factors = snf_factors(rows)
        seen.append(AbelianInvariants.from_factors(factors, rank))
        return factors

    monkeypatch.setattr(mcgtwist.engine, "snf_factors", recording)
    monkeypatch.setattr(mcgtwist.engine, "build_relation_system",
                        lambda spec, extra_relations: system)
    for seed in range(3):
        seen.clear()
        result = compute_h1(spec, seed=seed)
        per_sample, named = full_coordinate_sampler(system, 17, seed)
        assert result.sampling_report.samples == len(per_sample) == 17
        if matrix.vacuous:
            assert len(seen) == 1, seed
            assert all(inv == seen[0] for inv in per_sample), seed
        else:
            assert seen == per_sample, seed
        assert names(result) == named, seed


def test_unstable_sampling_is_raised(monkeypatch):
    # Replacing one ambiguity vector by a cycle that survives the
    # elimination as a unit vector changes the quotient of the samples
    # that draw it.  The projections are held on the system from its
    # first read, so the swap is made on a fresh system before that.
    spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
    result = compute_h1(spec)
    assert result.invariants == oracle(spec)
    plain = result.system
    system = build_relation_system(spec)
    vec = system.space.chain([("v", 2, 6, 1)])
    require_cycle(system.space, vec)
    system.ambiguity_chains["k1"][0] = vec
    elim = system.elimination
    assert elim(vec) == {elim.rank - 1: 1}
    assert ([p.rid for p in system.partials]
            == [p.rid for p in plain.partials])
    monkeypatch.setattr(mcgtwist.engine, "build_relation_system",
                        lambda spec, extra_relations: system)
    with pytest.raises(UnstableSampling):
        compute_h1(spec)


def test_exact_echelon_order_keeps_pivots_and_lattice():
    # UnitElimination enters its residual rows shortest first, to keep
    # the fill-in small; any order gives the same lattice, and the pivot
    # columns and values of an echelon are invariants of its lattice.
    # Checked on the full exact echelon: shortest first and
    # catalog order must give the same pivot columns, the same pivot
    # values and the same lattice, on the 55 benchmark specs (every
    # sixth grid spec).
    specs = (list(twist_grid()) + list(permutation_grid()))[::6]
    assert len(specs) == 55
    for spec in specs:
        system = build_relation_system(spec)
        built = exact_echelon(system)
        catalog_order = Echelon(vec for _, vec in system.exact)
        assert sorted(built.pivots) == sorted(catalog_order.pivots), spec
        assert ({j: row[j] for j, row in built.pivots.items()}
                == {j: row[j] for j, row in catalog_order.pivots.items()}), spec
        assert same_lattice(built, catalog_order), spec


def test_dropped_partial_instances_would_change_the_quotient():
    # build_relation_system drops every pm+ instance whose pinned row
    # lies in the span of the exact relations, the ambiguity lattice and
    # the rows kept before it, and assumes its true row adds nothing.
    # The pinned rows are not implied by the kept ones: put back into
    # sample 0, they change the invariants.  So a change to the filter
    # that keeps any of them shows up here.
    spec = SurfaceSpec.make(3, 0, 1, 0, "pmk")
    system = build_relation_system(spec)
    space = system.space
    kept = {p.rid for p in system.partials}
    dropped = [p.base for p in solver_instances(system)
               if p.ambiguity == "pm+" and p.rid not in kept]
    for chain in dropped:
        require_cycle(space, chain)
    assert dropped and kept

    elim = system.elimination
    rank = elim.rank
    rows = elim.base + [elim(p.base) for p in system.partials]
    sample0 = AbelianInvariants.from_factors(snf_factors(rows), rank)
    assert sample0 == compute_h1(spec).invariants == oracle(spec)
    rows += [elim(c) for c in dropped]
    with_dropped = AbelianInvariants.from_factors(snf_factors(rows), rank)
    assert with_dropped != sample0
