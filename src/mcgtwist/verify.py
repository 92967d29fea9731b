"""Internal consistency checks for one spec.

`verify_spec` checks the relation system that `compute` solves: its
representation, the boundary closed forms, the cycle lattice against its
explicit generating family, the relation catalog and the descent of the
certifying functionals.  `fault_checks` checks the checks: deliberately
flipped signs must be caught.  Both return a list of failure messages,
empty when everything holds.
"""

from .catalog import verify_catalog
from .certify import descent_check, functionals_for
from .chains import ChainSpace, expected_boundary, kernel_generator_list
from .engine import build_relation_system
from .errors import NoIntegerSolution, RelationOutsideKernel
from .intlin import Echelon, IntMatrix
from .surface import build_representation


def verify_spec(spec):
    """All consistency checks for one spec; returns a list of failures.

    Building the relation system rewrites every word relation and
    rejects, by name, one whose rewrite is not in the cycle lattice.
    That lattice is the whole kernel of the boundary map, so this
    rejects exactly the rewrites that are not cycles.  A catalog the
    system cannot be built from is reported as one failure.
    """
    try:
        system = build_relation_system(spec)
    except (RelationOutsideKernel, NoIntegerSolution) as exc:
        return ["relation system: %s" % exc]
    space, rep = system.space, system.space.rep
    failures = []
    ident = IntMatrix.identity(spec.d)
    for gen in space.gens:
        mat = rep.psi(gen)
        if mat.det() not in (1, -1):
            failures.append("det psi(%s) not a unit" % gen.name)
        if mat @ rep.psi(gen, -1) != ident:
            failures.append("psi(%s) inverse wrong" % gen.name)
        if gen.kind in "udsv" and mat @ mat != ident:
            failures.append("psi(%s) is not an involution" % gen.name)

    for gen in space.gens:
        for i in range(1, spec.d + 1):
            if space._bcol[gen][i - 1] != expected_boundary(spec, gen, i):
                failures.append(
                    "boundary of %s_(x)_xi_%d disagrees with the closed form"
                    % (gen.name, i)
                )

    listed = Echelon(
        dict(chain) for _, chain in kernel_generator_list(space)
    )
    if not system.lattice.echelon.same_lattice(listed):
        failures.append("cycle lattice differs from the explicit family")

    report = verify_catalog(space, system.catalog, system.lattice)
    failures.extend(report.failures)

    for functional in functionals_for(spec):
        failures.extend(descent_check(system, functional).failures)
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
