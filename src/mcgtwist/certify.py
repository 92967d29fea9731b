"""Certified lower bounds and the closed-form expected answers.

Each functional sends a generator to Z_2 (alpha) and a module basis
vector to Z_2 (beta, the parity of the gamma-coordinate sum).  When the
descent conditions hold, the functional is constant on homology classes,
so its values on the named basis give a certified count of independent
Z_2 summands.  The closed-form oracle gives the expected group for any
valid spec; full validation is computed-versus-oracle equality.
"""

import itertools

from .errors import DescentFailed
from .intlin import AbelianInvariants, gf2_insert
from .surface import Gen


class Functional:
    """A Z_2-valued functional on chains: [x] (x) xi_i maps to
    alpha(x) * beta(i)."""

    def __init__(self, name, alpha_map, gamma_count):
        self.name = name
        self.alpha_map = alpha_map
        # beta(i) = 1 exactly for i <= gamma_count
        self.gamma_count = gamma_count


def functionals_for(spec):
    """The functionals available for a spec's flavor.

    Orientation-behavior at a single puncture ("alpha_j") distinguishes
    each unconstrained puncture slide; with permutable punctures only
    the total orientation-reversal parity ("alpha") and the permutation
    sign ("alpha_prime") descend to the group.
    """
    g, n, k = spec.g, spec.n, spec.k
    if spec.flavor == "pmk":
        return [
            Functional("alpha_%d" % j, {Gen("v", j): 1}, g)
            for j in range(k + 1, n + 1)
        ]
    if spec.flavor == "m":
        return [
            Functional("alpha", {Gen("v", n): 1}, g),
            Functional(
                "alpha_prime", {Gen("s", j): 1 for j in range(1, n)}, g
            ),
        ]
    return []


def odd_support(space, functional):
    """The set of flat coordinates of the classes [x] (x) xi_i on which
    the functional is odd: alpha(x) odd and i <= gamma_count."""
    return frozenset(
        space.flat(gen, i)
        for gen, a in functional.alpha_map.items()
        if a & 1 and gen in space.gpos
        for i in range(1, min(functional.gamma_count, space.d) + 1)
    )


def parity_on(support, chain):
    """The parity of a chain's coefficients summed over the set
    `support`.  Most relation chains miss the support altogether, and
    `isdisjoint` tells so without a Python-level loop."""
    if support.isdisjoint(chain):
        return 0
    return sum(chain.get(flat, 0) for flat in support) & 1


def descent_check(system, functional):
    """The failures of the conditions that make the functional well
    defined on the quotient; an empty list when they all hold.

    Needs beta to be invariant under every generator matrix, and the
    functional to vanish on every exact relation vector, every pinned
    partial instance (`system.instances`) and every ambiguity chain.
    Those chains cover the whole ambiguity lattice A: they span a
    lattice A' with A' + E = A + E, E the exact lattice (A' = A for
    "pm+"; see `build_relation_system`), and a functional that is
    linear mod 2 and vanishes on E and on A' vanishes on A.

    Walking every instance, not only the kept ones
    (`RelationSystem.partials`), checks more and fails no more on
    correct data.  A dropped instance lies in E + A, the integer span
    of the exact chains and its key's ambiguity chains, and the
    functional is linear mod 2, so it vanishes on the dropped instance
    when it vanishes on those.  So a dropped instance fails only when an
    exact chain or an ambiguity chain fails too, and the filter is never
    built here.
    """
    space = system.space
    failures = []
    for gen in space.gens:
        # Column c of beta psi(x) - beta is the sum of (row_r - e_r)[c]
        # over r < gamma_count, and an unmoved row is e_r, so beta is
        # invariant (mod 2) exactly when that sum over the moved rows is
        # even in every column.
        parity = {}
        for r, entries in space.rep.moved[gen, 1]:
            if r < functional.gamma_count:
                for c, v in entries:
                    parity[c] = parity.get(c, 0) + v
                parity[r] = parity.get(r, 0) - 1
        odd = [c for c, v in parity.items() if v & 1]
        if odd:
            failures.append(
                "%s: beta not invariant under psi(%s) at xi_%d"
                % (functional.name, gen.name, min(odd) + 1)
            )
    support = odd_support(space, functional)
    relations = itertools.chain(
        system.exact,
        ((p.rid, p.base) for p in system.instances),
        (("ambiguity:%s" % key, c)
         for key, chains in system.ambiguity_chains.items() for c in chains),
    )
    failures += ["%s: nonzero on relation %s" % (functional.name, rid)
                 for rid, vec in relations if parity_on(support, vec)]
    return failures


def lower_bound(spec, result):
    """Certified lower bound on the number of independent Z_2 summands:
    the GF(2) rank of the functional-by-named-class value matrix."""
    system = result.system
    full = (1 << len(result.named_basis)) - 1
    pivots = {}
    for functional in functionals_for(spec):
        failures = descent_check(system, functional)
        if failures:
            raise DescentFailed("; ".join(failures[:3]))
        support = odd_support(system.space, functional)
        mask = 0
        for t, (_, chain) in enumerate(result.named_basis):
            if parity_on(support, chain):
                mask |= 1 << t
        gf2_insert(pivots, mask, full)
    return len(pivots)


def oracle(spec):
    """The expected invariants, from the closed-form case split."""
    g, s, n, k = spec.g, spec.s, spec.n, spec.k
    if spec.flavor in ("pm+", "pmk"):
        if g == 3:
            if s == 0 and k == 0:
                e = 3 + n
            elif s == 0:
                e = 1 + n + k
            else:
                e = n + 3 * s + k
        elif g == 4:
            e = 3 + n - k if s == 0 else 2 + n + s - k
        elif g in (5, 6):
            e = 3 + n - k
        else:
            e = 2 + n - k
    else:
        if g == 3:
            e = 5 if s == 0 else 3 * s + 2
        elif g == 4:
            e = 5 if s == 0 else 4 + s
        elif g in (5, 6):
            e = 5
        else:
            e = 4
    return AbelianInvariants((2,) * e, 0)
