"""Internal consistency checks for one spec.

`verify_spec` checks the relation system that `compute` solves: its
representation and boundary closed forms (`representation_failures`),
the explicit generating family of the cycle lattice
(`kernel_generator_list`, whose members K1-K11 and K12 are the closed
forms the build reads), certified by its boundaries and its Smith form
without a second kernel, and the descent of the certifying functionals;
building the system checks that every catalog relation is a cycle.
`fault_checks` checks the checks: it runs the same
`representation_failures` on representations with a deliberately
flipped sign, which must be caught.  Both return a list of
failure messages, empty when everything holds.
"""

from .certify import descent_check, functionals_for
from .chains import (
    ChainSpace,
    boundary1,
    expected_boundary,
    kernel_generator_list,
)
from .engine import build_relation_system
from .errors import RelationOutsideKernel
from .intlin import snf_factors
from .surface import INVOLUTION_KINDS, build_representation


def representation_failures(space):
    """The checks of a representation and its boundary map; yields each
    failure.  psi(x) psi(x)^-1 must be the identity for every generator
    x, and every boundary column of `space` must equal its closed
    form."""
    spec, rep = space.spec, space.rep
    ident = [{r: 1} for r in range(spec.d)]
    for gen in space.gens:
        inverse = rep.apply_letter(ident, gen, -1)
        if rep.apply_letter(inverse, gen, 1) != ident:
            yield "psi(%s) is not %s" % (
                gen.name,
                "an involution" if gen.kind in INVOLUTION_KINDS
                else "a transvection",
            )

    for gen in space.gens:
        for i in range(1, spec.d + 1):
            if space._bcol[gen][i - 1] != expected_boundary(spec, gen, i):
                yield ("boundary of %s_(x)_xi_%d disagrees with the closed form"
                       % (gen.name, i))


def spans_cycle_lattice(system, chains):
    """True when `chains` span the cycle lattice Z, certified without
    computing Z: every chain has zero boundary, and their Smith form is
    `system.rank` factors 1.  Then their span L lies in Z, has Z's rank,
    and Z^dim / L is free, so Z / L is a finite subgroup of a free group,
    hence 0.  Conversely Z^dim / Z embeds in the free module of
    boundaries, so the certificate holds exactly when L = Z."""
    space = system.space
    return (not any(boundary1(space, c) for c in chains)
            and snf_factors(chains) == [1] * system.rank)


def verify_spec(spec):
    """All consistency checks for one spec; returns a list of failures.

    Building the relation system checks every catalog entry, and a
    catalog the system cannot be built from is reported as one failure
    naming the entry:

    - a word relation is rewritten over every coefficient, and the
      rewrite must be a cycle, i.e. lie in the cycle lattice, the whole
      kernel of the boundary map.  The boundary of the rewrite at xi is
      (psi(lhs)^-1 - psi(rhs)^-1) xi, so every rewrite is a cycle
      exactly when both sides act alike on H_1, given that each
      psi(x)^-1 is right (`representation_failures`);
    - a class relation, and the exact part of a k1 partial, must be a
      cycle;
    - the one instance of a slide-conjugation partial, a sum of the
      closed-form cycles v~(j, r) (`chains._vtilde`), must be a cycle.

    The explicit family (`kernel_generator_list`), built here for this
    certificate alone, must span the cycle lattice.  Its members K1-K11
    and K12 are the closed forms of the pm+ basis and of the v~(j, r)
    the build reads.
    """
    try:
        system = build_relation_system(spec)
    except RelationOutsideKernel as exc:
        return ["relation system: %s" % exc]
    failures = list(representation_failures(system.space))
    listed = [c for _, c in kernel_generator_list(system.space)]
    if not spans_cycle_lattice(system, listed):
        failures.append("cycle lattice differs from the explicit family")

    for functional in functionals_for(spec):
        failures.extend(descent_check(system, functional))
    return failures


def fault_checks(spec):
    """The deliberately flipped signs must be caught, and checking them
    must not raise; returns failures of the checks-about-checks.  A
    variant is caught at the first failure `representation_failures`
    yields; a crash before it is reported as raised."""
    failures = []
    for variant in ("e", "s"):
        if variant == "e" and spec.s + spec.n - 1 < 3:
            continue
        if variant == "s" and (spec.flavor != "m" or spec.s + spec.n < 3):
            continue
        try:
            rep = build_representation(spec, sign_variant=variant)
            caught = any(representation_failures(ChainSpace(spec, rep)))
        except Exception as exc:
            # A crash is a fault of the checks, not a caught fault.
            failures.append("sign variant %r raised %s: %s"
                            % (variant, type(exc).__name__, exc))
            continue
        if not caught:
            failures.append("sign variant %r went undetected" % variant)
    return failures
