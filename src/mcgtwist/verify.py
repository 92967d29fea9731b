"""Internal consistency checks for one spec.

`verify_spec` checks the representation, the boundary closed forms, the
cycle lattice against its explicit generating family, the relation
catalog and the descent of the certifying functionals.  `fault_checks`
checks the checks: deliberately flipped signs must be caught.  Both
return a list of failure messages, empty when everything holds.
"""

from .catalog import build_catalog, verify_catalog
from .certify import descent_check, functionals_for
from .chains import (
    ChainSpace,
    boundary1,
    cycle_lattice,
    expected_boundary,
    kernel_generator_list,
    rewrite_relation_all,
)
from .engine import build_relation_system
from .intlin import Echelon, IntMatrix
from .surface import build_representation


def verify_spec(spec):
    """All consistency checks for one spec; returns a list of failures."""
    failures = []
    rep = build_representation(spec)
    ident = IntMatrix.identity(spec.d)
    for gen in spec.generators():
        mat = rep.psi(gen)
        if mat.det() not in (1, -1):
            failures.append("det psi(%s) not a unit" % gen.name)
        if mat @ rep.psi(gen, -1) != ident:
            failures.append("psi(%s) inverse wrong" % gen.name)
        if gen.kind in "udsv" and mat @ mat != ident:
            failures.append("psi(%s) is not an involution" % gen.name)

    space = ChainSpace(spec, rep)
    for gen in space.gens:
        for i in range(1, spec.d + 1):
            if space._bcol[gen][i - 1] != expected_boundary(spec, gen, i):
                failures.append(
                    "boundary of %s_(x)_xi_%d disagrees with the closed form"
                    % (gen.name, i)
                )

    lattice = cycle_lattice(space)
    listed = Echelon(
        dict(chain) for _, chain in kernel_generator_list(space)
    )
    if not lattice.echelon.same_lattice(listed):
        failures.append("cycle lattice differs from the explicit family")

    catalog = build_catalog(spec, space)
    report = verify_catalog(space, catalog, lattice)
    failures.extend(report.failures)

    for entry in catalog:
        if entry.kind != "word":
            continue
        for i, vec in enumerate(rewrite_relation_all(space, entry.lhs, entry.rhs)):
            if boundary1(space, vec) or not lattice.contains(vec):
                failures.append(
                    "%s rewritten at xi_%d is not a cycle" % (entry.rid, i + 1)
                )

    system = build_relation_system(spec)
    for functional in functionals_for(spec):
        drep = descent_check(system, functional)
        failures.extend(drep.failures)
    return failures


def fault_checks(spec):
    """The deliberately flipped signs must be caught; returns failures
    of the checks-about-checks."""
    failures = []
    for variant in ("e", "s"):
        if variant == "e" and spec.s + spec.n - 1 < 3:
            continue
        if variant == "s" and (spec.flavor != "m" or spec.s + spec.n < 3):
            continue
        caught = False
        try:
            rep = build_representation(spec, sign_variant=variant)
            ident = IntMatrix.identity(spec.d)
            for gen in spec.generators():
                if gen.kind in "udsv" and rep.psi(gen) @ rep.psi(gen) != ident:
                    caught = True
            space = ChainSpace(spec, rep)
            for gen in space.gens:
                for i in range(1, spec.d + 1):
                    if space._bcol[gen][i - 1] != expected_boundary(spec, gen, i):
                        caught = True
        except Exception:
            caught = True
        if not caught:
            failures.append("sign variant %r went undetected" % variant)
    return failures
