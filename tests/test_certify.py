"""Functionals, descent conditions, lower bounds, and the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgtwist.certify import (
    Functional,
    descent_check,
    functionals_for,
    lower_bound,
    odd_support,
    oracle,
    parity_on,
)
from mcgtwist.chains import ChainSpace
from mcgtwist.engine import PartialRow, build_relation_system, compute_h1
from mcgtwist.errors import SpecInvalid
from mcgtwist.surface import Gen, SurfaceSpec
from helpers import (
    dense_beta_failures,
    functional_value,
    functional_value_reference,
)

# Every flavor, with and without boundary, from g 3 to g 9.
BETA_SPECS = [
    SurfaceSpec.make(3, 1, 0),
    SurfaceSpec.make(4, 2, 2),
    SurfaceSpec.make(7, 3, 3),
    SurfaceSpec.make(3, 0, 3, 1, "pmk"),
    SurfaceSpec.make(5, 2, 3, 0, "pmk"),
    SurfaceSpec.make(9, 3, 3, 0, "pmk"),
    SurfaceSpec.make(3, 3, 2, flavor="m"),
    SurfaceSpec.make(6, 1, 3, flavor="m"),
    SurfaceSpec.make(9, 3, 3, flavor="m"),
]


class TestFunctionalValues:
    def test_slide_class_detected(self):
        spec = SurfaceSpec.make(5, 0, 3, 0, "pmk")
        system = build_relation_system(spec)
        space = system.space
        fns = {f.name: f for f in functionals_for(spec)}
        assert set(fns) == {"alpha_1", "alpha_2", "alpha_3"}
        for j in (1, 2, 3):
            chain = space.chain([("v", j, 1, 1)])
            for i in (1, 2, 3):
                expected = 1 if i == j else 0
                assert functional_value(space, fns["alpha_%d" % i], chain) == expected

    def test_twist_classes_invisible(self):
        spec = SurfaceSpec.make(4, 2, 2, 0, "pmk")
        system = build_relation_system(spec)
        space = system.space
        for f in functionals_for(spec):
            for chain in (space.chain([("a", 1, 3, 1)]),
                          space.chain([("u", 1, 3, 1)]),
                          space.chain([("d", 1, 1, 1)])):
                assert functional_value(space, f, chain) == 0

    def test_permutation_sign_splits_braid_from_slide(self):
        spec = SurfaceSpec.make(5, 0, 2, flavor="m")
        system = build_relation_system(spec)
        space = system.space
        alpha, alpha_prime = functionals_for(spec)
        braid = space.chain([("s", 1, 1, 1)])
        slide = space.chain([("v", 2, 1, 1)])
        assert functional_value(space, alpha, braid) == 0
        assert functional_value(space, alpha_prime, braid) == 1
        assert functional_value(space, alpha, slide) == 1
        assert functional_value(space, alpha_prime, slide) == 0

    def test_zero_chain(self):
        spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
        system = build_relation_system(spec)
        for f in functionals_for(spec):
            assert functional_value(system.space, f, {}) == 0

    def test_beta_counts_only_crosscap_coordinates(self):
        spec = SurfaceSpec.make(3, 0, 2, 0, "pmk")
        system = build_relation_system(spec)
        f = functionals_for(spec)[0]
        beyond = system.space.chain([("v", 1, 4, 1)])
        assert functional_value(system.space, f, beyond) == 0


def reference_cases():
    """(space, functional) pairs: every functional of a few specs, the
    broken functionals of TestDescent (truncated beta, a charged twist
    generator, alpha zero at every gamma_count), and the edge cases of
    the odd support: an even alpha value, a generator the surface lacks
    and a gamma_count past d."""
    cases = []
    for spec in (SurfaceSpec.make(5, 0, 3, 1, "pmk"),
                 SurfaceSpec.make(3, 2, 2, flavor="m"),
                 SurfaceSpec.make(8, 0, 2, 0, "pmk"),
                 SurfaceSpec.make(6, 1, 3, flavor="m")):
        space = ChainSpace(spec)
        fns = list(functionals_for(spec))
        fns.append(Functional("alpha_2", {Gen("v", 2): 1}, spec.g - 1))
        fns.append(Functional("bad", {Gen("a", 1): 1}, spec.g))
        fns.extend(Functional("f", {}, c) for c in range(1, spec.d + 1))
        first, last = space.gens[0], space.gens[-1]
        fns.append(Functional("even", {last: 2, first: 3}, spec.g))
        fns.append(Functional("absent", {Gen("v", 9): 1, last: 1}, spec.g))
        fns.append(Functional("wide", {first: 1}, spec.d + 4))
        cases.extend((space, f) for f in fns)
    return cases


REFERENCE_CASES = reference_cases()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_functional_value_matches_the_chain_walk(data):
    # parity_on sums the chain over the odd support; the reference
    # walks every entry of the chain.  Half of the drawn
    # coordinates are classes of a generator the functional names, or
    # of the generator after it, at any xi_i, so the chains meet the
    # edges of the support.
    space, functional = data.draw(st.sampled_from(REFERENCE_CASES))
    named = [flat for gen in functional.alpha_map if gen in space.gpos
             for flat in range(space.flat(gen, 1),
                               min(space.flat(gen, 1) + 2 * space.d,
                                   space.dim))]
    flats = st.integers(0, space.dim - 1)
    if named:
        flats = st.one_of(flats, st.sampled_from(named))
    terms = data.draw(st.dictionaries(flats, st.integers(-5, 5),
                                      max_size=12))
    chain = {flat: c for flat, c in terms.items() if c}
    assert (parity_on(odd_support(space, functional), chain)
            == functional_value_reference(space, functional, chain))


class TestDescent:
    def test_builtin_functionals_descend(self):
        for spec in (SurfaceSpec.make(5, 0, 3, 1, "pmk"),
                     SurfaceSpec.make(3, 2, 2, flavor="m"),
                     SurfaceSpec.make(8, 0, 2, 0, "pmk")):
            system = build_relation_system(spec)
            for f in functionals_for(spec):
                failures = descent_check(system, f)
                assert not failures, failures

    def test_truncated_beta_fails(self):
        # Dropping the last crosscap coordinate from beta breaks
        # invariance under the boundary slide.
        spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
        system = build_relation_system(spec)
        broken = Functional("alpha_2", {Gen("v", 2): 1}, spec.g - 1)
        failures = descent_check(system, broken)
        assert "alpha_2: beta not invariant under psi(a4) at xi_4" in failures

    @pytest.mark.parametrize("spec", BETA_SPECS, ids=str)
    def test_beta_check_matches_dense_columns(self, spec):
        # The check reads only the moved rows; the reference sums whole
        # columns of the dense matrices.  With alpha zero, every failure
        # is a beta failure.
        system = build_relation_system(spec)
        seen = 0
        for gamma_count in range(1, spec.d + 1):
            f = Functional("f", {}, gamma_count)
            failures = descent_check(system, f)
            assert failures == dense_beta_failures(system.space, f), gamma_count
            seen += len(failures)
        assert seen

    def test_wrong_alpha_fails_on_relations(self):
        # Charging a twist generator makes the functional nonzero on
        # exact relation vectors.
        spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
        system = build_relation_system(spec)
        broken = Functional("bad", {Gen("a", 1): 1}, spec.g)
        failures = descent_check(system, broken)
        assert any("relation" in f for f in failures)

    def test_every_partial_instance_is_checked(self):
        # descent_check walks system.instances, not only the kept
        # partials: a rogue instance on which alpha_1 is odd is named.
        spec = SurfaceSpec.make(5, 0, 2, 0, "pmk")
        system = build_relation_system(spec)
        kept = iter(system.instances)
        assert all(p in kept for p in system.partials)  # a subsequence
        assert len(system.partials) < len(system.instances)
        rogue = PartialRow("rogue", system.space.chain([("v", 1, 1, 1)]),
                           "pm+")
        system.instances.append(rogue)
        alpha_1 = functionals_for(spec)[0]
        assert alpha_1.name == "alpha_1"
        assert descent_check(system, alpha_1) == [
            "alpha_1: nonzero on relation rogue"
        ]


class TestLowerBound:
    def test_pmk_counts_free_slides(self):
        for (g, s, n, k), expected in [
            ((5, 0, 3, 0), 3),
            ((5, 0, 3, 2), 1),
            ((7, 0, 2, 0), 2),
            ((3, 2, 2, 1), 1),
        ]:
            spec = SurfaceSpec.make(g, s, n, k, "pmk")
            result = compute_h1(spec)
            assert lower_bound(spec, result) == expected

    def test_m_is_two(self):
        for spec in (SurfaceSpec.make(3, 0, 2, flavor="m"),
                     SurfaceSpec.make(6, 1, 3, flavor="m")):
            result = compute_h1(spec)
            assert lower_bound(spec, result) == 2

    def test_pm_plus_is_zero(self):
        spec = SurfaceSpec.make(4, 1, 1)
        result = compute_h1(spec)
        assert lower_bound(spec, result) == 0

    def test_never_exceeds_oracle(self):
        for spec in (SurfaceSpec.make(3, 0, 3, 0, "pmk"),
                     SurfaceSpec.make(9, 0, 2, flavor="m"),
                     SurfaceSpec.make(4, 3, 2, 2, "pm+")):
            result = compute_h1(spec)
            assert lower_bound(spec, result) <= len(oracle(spec).torsion)


class TestOracle:
    def test_closed_form_cases(self):
        cases = [
            ((3, 0, 2, 0, "pmk"), 5),
            ((3, 0, 2, 1, "pmk"), 4),
            ((3, 1, 2, 1, "pmk"), 6),
            ((4, 2, 1, 1, "pmk"), 4),
            ((4, 0, 1, 1, "pm+"), 3),
            ((5, 0, 2, 0, "pmk"), 5),
            ((6, 3, 1, 1, "pm+"), 3),
            ((7, 2, 3, 0, "pmk"), 5),
            ((3, 2, 2, None, "m"), 8),
            ((4, 1, 2, None, "m"), 5),
            ((5, 3, 3, None, "m"), 5),
            ((9, 0, 2, None, "m"), 4),
        ]
        for (g, s, n, k, flavor), exponent in cases:
            spec = SurfaceSpec.make(g, s, n, k, flavor)
            inv = oracle(spec)
            assert inv.torsion == (2,) * exponent, spec
            assert inv.free_rank == 0

    def test_closed_surface_constants(self):
        # With no boundary or punctures the expected answer is still
        # defined even though the computation itself is not available.
        assert oracle(SurfaceSpec.make(3, 0, 0)).torsion == (2, 2, 2)
        assert oracle(SurfaceSpec.make(6, 0, 0)).torsion == (2, 2, 2)
        assert oracle(SurfaceSpec.make(7, 0, 0)).torsion == (2, 2)

    def test_invalid_spec_rejected_upstream(self):
        with pytest.raises(SpecInvalid):
            SurfaceSpec.make(3, 0, 1, flavor="m")


def test_computed_equals_oracle_on_samples():
    for spec in (SurfaceSpec.make(3, 3, 3, 3, "pm+"),
                 SurfaceSpec.make(6, 2, 2, 1, "pmk"),
                 SurfaceSpec.make(7, 3, 2, flavor="m")):
        assert compute_h1(spec).invariants == oracle(spec)
