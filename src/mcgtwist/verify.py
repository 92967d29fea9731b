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
flipped sign, which must be caught.  This module alone defines those
planted faults (`sign_faults`, `faulty_representation`); the build that
every run executes has no fault branch.  Both checks return a list of
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
from .surface import INVOLUTION_KINDS, Gen, build_representation


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


def sign_faults(spec):
    """The planted sign faults that apply to `spec`, as a dict variant ->
    [(x, row, col), ...]: each fault negates the 0-based off-diagonal
    entry (row, col) of psi(x) for every listed generator x.

    - "e" negates entry (g+3, 1), 1-based, of every e_j with j >= 3: the
      delta_3 coefficient in the gamma_1 column.  It applies when e_3
      exists, s + n - 1 >= 3.
    - "s" negates entry (g+1, d) of the last braid s_{n-1}: the delta_1
      coefficient in the delta_{s+n-1} column.  It applies to flavor
      "m" when that entry is off the diagonal, d - 1 > g, i.e.
      s + n >= 3.
    """
    g, sn = spec.g, spec.s + spec.n
    out = {"e": [(Gen("e", j), g + 2, 0) for j in range(3, sn)]}
    if spec.flavor == "m" and sn >= 3:
        out["s"] = [(Gen("s", spec.n - 1), g, spec.d - 1)]
    return {variant: entries for variant, entries in out.items() if entries}


def faulty_representation(spec, variant):
    """A fresh `build_representation(spec)` with the sign fault `variant`
    (a key of `sign_faults(spec)`) planted in it.

    Each entry is negated in the moved rows of both psi(x) and
    psi(x)^-1, which gives the rows the builder's inverse rule (see
    `build_representation`) gives for the faulty psi(x).  An
    off-diagonal nonzero entry lies in a moved row of each, and stays
    nonzero.  An involution's inverse has the same rows as psi(x), so it
    takes the same negation.  A transvection T has inverse 2I - T, whose
    off-diagonal entries are T's negated, so negating an entry of T
    negates the same entry of 2I - T.
    """
    rep = build_representation(spec)
    for gen, row, col in sign_faults(spec)[variant]:
        for key in (gen, 1), (gen, -1):
            rows = dict(rep.moved[key])
            rows[row] = tuple((c, -v if c == col else v) for c, v in rows[row])
            rep.moved[key] = tuple(sorted(rows.items()))
    return rep


def fault_checks(spec):
    """The planted sign faults (`sign_faults`) must be caught, and
    checking them must not raise; returns failures of the
    checks-about-checks.  Each variant that applies to `spec` is planted
    in a build of its own, and is caught at the first failure
    `representation_failures` yields; a crash before it, in the build
    too, is reported as raised."""
    failures = []
    for variant in sign_faults(spec):
        try:
            rep = faulty_representation(spec, variant)
            if not any(representation_failures(ChainSpace(spec, rep))):
                failures.append("sign variant %r went undetected" % variant)
        except Exception as exc:
            # A crash is a fault of the checks, not a caught fault.
            failures.append("sign variant %r raised %s: %s"
                            % (variant, type(exc).__name__, exc))
    return failures
