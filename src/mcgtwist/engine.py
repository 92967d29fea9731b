"""The end-to-end pipeline: relation chains, quotient, named basis.

The first homology group with twisted coefficients is the quotient of
the cycle lattice by the sublattice generated by the rewritten
relations, each held as its chain and quotiented in the chain space
(see `compute_h1`).  Word and class relations contribute fixed vectors.
Partial relations contribute a pinned part plus an unknown element of a
known ambiguity sublattice; the unknown is handled by sampling: sample 0
takes it to be zero, later samples add a seeded random {0,1}-combination
of ambiguity basis vectors, and the quotient invariants must agree
across all samples.  Only the instances that escape the exact relations
and their ambiguity sublattice are sampled (`RelationSystem.partials`);
that filter, the exact-relation echelon and its unit elimination are
built once, on first use by `compute_h1`, and `verify` builds none.  No
instance known to lie in its ambiguity sublattice is built, and no
boundary echelon (see `build_relation_system`).
"""

import random
import time
from dataclasses import dataclass, field
from functools import cached_property

from .catalog import (
    build_catalog,
    k1_ambiguity_basis,
    partial_exact_part,
    partial_target_boundary,
    pmplus_boundary_solver,
)
from .chains import ChainSpace, boundary1, rewrite_relation_all
from .errors import (
    NoIntegerSolution,
    NotACycle,
    RelationOutsideKernel,
    UnstableSampling,
)
from .intlin import (
    AbelianInvariants,
    Echelon,
    echelon_reduce,
    gf2_insert,
    gf2_reduce,
    parity_mask,
    snf_factors,
    vec_axpy,
)


@dataclass
class PartialRow:
    """One coefficient instance of a partial relation: the pinned chain
    (exact part minus a particular solution of the unknown part), the
    key of its ambiguity sublattice and, once the filter keeps it, its
    projection by `RelationSystem.elimination`."""

    rid: str
    base: dict
    ambiguity: str
    projected: dict = field(default=None, repr=False, compare=False)


@dataclass
class RelationSystem:
    """The checked relation chains of one spec.

    The build holds what every caller reads: the exact chains, every
    pinned partial instance in catalog order (`instances`) and each
    ambiguity key's basis chains, all checked to be cycles.  The
    exact-relation echelon, its elimination and the filtered instances
    (`partials`) are read only by the quotient, so each is computed on
    first read and then held on the system; `verify` builds none.
    """

    spec: object
    space: ChainSpace
    catalog: list
    rank: int  # of the cycle lattice: space.dim - d
    exact: list  # (rid, chain)
    instances: list  # every built PartialRow, in catalog order
    ambiguity_chains: dict  # key -> list of chains

    @property
    def exact_coords(self):  # the exact chains, as perfbench counts them
        return [vec for _, vec in self.exact]

    @cached_property
    def exact_echelon(self):
        """The lattice spanned by the exact chains, entered shortest first
        (see `build_relation_system`)."""
        return Echelon(sorted((vec for _, vec in self.exact), key=len))

    @cached_property
    def elimination(self):
        """The `UnitElimination` of the exact echelon."""
        return UnitElimination(self.exact_echelon, self.space.dim,
                               self.ambiguity_chains)

    @cached_property
    def partials(self):
        """The kept partial instances, a subsequence of `instances`.

        A partial relation pins its row down only modulo its ambiguity
        sublattice, so an instance is informative exactly when its
        pinned part escapes the span of the exact relations, the
        ambiguity sublattice and the instances of its key already kept.
        Only those are kept: the true rows of the dropped instances are
        assumed to add nothing to the quotient.  Their pinned rows do
        change it, so this is not proved here; the evidence is agreement
        with `certify.oracle`.  The sampling in compute_h1 checks the
        kept rows' unknown parts.  The instances are visited in catalog
        order, which decides which of them are kept.

        The test is asked in the coordinates of `elimination`, with the
        same outcome as in all dim coordinates.  For E the exact lattice,
        A the key's ambiguity lattice and K its kept rows, p is in
        E + A + K iff pi(p) = pi(q) for some q in E + A + K, since then
        p - q is in ker pi = span(U), inside E; and pi(E) = span(`base`).
        Every instance is projected once, here.
        """
        elim = self.elimination
        filters = {key: Echelon(elim.base + basis)
                   for key, (basis, _) in elim.ambiguity.items()}
        kept = []
        for p in self.instances:
            row = elim(p.base)
            if not filters[p.ambiguity].contains(row):
                filters[p.ambiguity].insert(dict(row))
                p.projected = row
                kept.append(p)
        return kept


def require_cycle(space, chain, error=NotACycle):
    """Raise `error` unless the chain has zero boundary, that is, lies in
    the cycle lattice."""
    if boundary1(space, chain):
        raise error("not in the cycle lattice: %s" % space.format_chain(chain))


def build_relation_system(spec, extra_relations=None):
    """Rewrite the whole catalog into relation chains, each a cycle.

    Partial relations are resolved into a pinned chain (their unknown
    part replaced by one particular solution) plus a reference to the
    ambiguity sublattice, whose basis is computed once per kind.  Every
    chain is checked here, in catalog order, and nothing else is
    computed: the exact echelon, its elimination and the kept instances
    are built on first read (see `RelationSystem`).

    The exact rows enter their echelon shortest first, which keeps the
    fill-in small, and the order changes nothing downstream:

    - in an echelon basis of a lattice L, the pivot columns and the
      pivot values are invariants of L: the pivot at column j generates
      {x_j : x in L, x_i = 0 for i < j};
    - so the unit-pivot rows U of `UnitElimination` sit on the same
      columns, r' and every quotient are unchanged;
    - a row of U that differs from the one catalog order would give
      differs from it by a vector of the exact lattice, and every
      sample's lattice L contains the exact lattice, so L, and with it
      Z^dim / L = Z^r' / pi(L), is the same for either U.

    A slide conjugation x v_j = v_j y builds no instance at a
    coefficient xi that x fixes (B_x xi = 0, B_x = psi(x)^-1 - I).  The
    general path pins [x] (x) xi there: the exact part is [x] (x) xi +
    [v_j] (x) B_x xi = [x] (x) xi, and the target boundary
    psi(v_j)^-1 B_x xi is 0, solved by 0.  That chain is a cycle on a
    kind of `PMPLUS_KINDS`, so an integer combination of the pm+
    ambiguity chains, which span the kernel of `pmplus_boundary_solver`:
    the filter never kept it, its cycle check was vacuous, and
    `descent_check` (linear mod 2) covers it through those chains.

    The cycle lattice has rank dim - d: the boundary columns of
    [a_j] (x) xi_j, [u_1] (x) xi_1 and [e_j] (x) xi_1 are gamma_j +
    gamma_{j+1} (j < g), gamma_2 - gamma_1 and gamma_1 + gamma_2 +
    delta_1 + ... + delta_j (j < s + n), d vectors of Z^d, independent
    (delta_j enters first with e_j, and the rest span the gamma_i over
    Q); every spec has these letters.
    """
    spec.require_free_module()
    space = ChainSpace(spec)
    catalog = build_catalog(spec, space)
    if extra_relations:
        catalog = catalog + list(extra_relations)

    system = RelationSystem(
        spec=spec, space=space, catalog=catalog,
        rank=space.dim - spec.d, exact=[], instances=[],
        ambiguity_chains={},
    )

    def check(rid, chain):
        require_cycle(space, chain, error=lambda msg: RelationOutsideKernel(
            "%s: %s" % (rid, msg)))

    for entry in catalog:
        if entry.kind == "partial":
            continue
        if entry.kind == "word":
            for vec in rewrite_relation_all(space, entry.lhs, entry.rhs):
                if vec:
                    check(entry.rid, vec)
                    system.exact.append((entry.rid, vec))
        else:
            check(entry.rid, entry.vector)
            system.exact.append((entry.rid, entry.vector))

    pm_solver = None

    def add_partial(rid, base, key):
        check(rid, base)
        if key not in system.ambiguity_chains:
            if key == "pm+":
                chains = pm_solver.kernel_basis()
            else:
                chains = k1_ambiguity_basis(space)
            for c in chains:
                require_cycle(space, c, error=RelationOutsideKernel)
            system.ambiguity_chains[key] = chains
        system.instances.append(PartialRow(rid, base, key))

    for entry in catalog:
        if entry.kind != "partial":
            continue
        if entry.ambiguity == "k1":
            add_partial(entry.rid, entry.vector, "k1")
        else:
            if pm_solver is None:
                pm_solver = pmplus_boundary_solver(space)
            x, vj = entry.conjugation
            for xi in range(1, space.d + 1):
                if not space._bcol[x][xi - 1]:  # x fixes xi: see above
                    continue
                rid = "%s:xi%d" % (entry.rid, xi)
                base = partial_exact_part(space, x, vj, xi)
                try:
                    particular = pm_solver.solve(
                        partial_target_boundary(space, x, vj, xi)
                    )
                except NoIntegerSolution as exc:
                    raise NoIntegerSolution("%s: %s" % (rid, exc)) from None
                vec_axpy(base, particular, -1)
                if base:
                    add_partial(rid, base, "pm+")
    return system


def named_candidates(space):
    """The ordered candidate list whose surviving members form the named
    basis of the quotient, as (name, chain) pairs."""
    spec = space.spec
    g, s, n, k = spec.g, spec.s, spec.n, spec.k

    def one(kind, j, i):
        return ("%s_{%d,%d}" % (kind, j, i), space.chain([(kind, j, i, 1)]))

    out = []
    if g == 3:
        # Extra boundary/puncture coefficients keep a- and u-classes
        # independent on genus 3; their count depends on the flavor.
        extra = s + (k if spec.flavor != "m" else 0)
        out.append(
            ("a_{1,1}+a_{1,2}", space.chain([("a", 1, 1, 1), ("a", 1, 2, 1)]))
        )
        out.append(one("a", 1, 3))
        out.extend(one("a", 1, i) for i in range(4, 3 + extra))
        out.append(one("u", 1, 3))
        out.extend(one("u", 1, i) for i in range(4, 3 + extra))
    else:
        if g <= 6:
            out.append(one("a", 1, 3))
        out.append(one("u", 1, 3))
        out.append((
            "b_{1,1}-a_{1,1}-a_{3,3}",
            space.chain([("b", 1, 1, 1), ("a", 1, 1, -1), ("a", 3, 3, -1)]),
        ))
    if g in (3, 4):
        out.extend(one("d", j, 1) for j in range(1, s))
    if spec.flavor == "m":
        out.append(one("v", n, 1))
        out.append(one("s", 1, 1))
    else:
        out.extend(one("v", j, 1) for j in range(k + 1, n + 1))
    return out


@dataclass
class SamplingReport:
    samples: int
    stable: bool


@dataclass
class H1Result:
    spec: object
    invariants: AbelianInvariants
    named_basis: list
    sampling_report: SamplingReport
    ms: int
    system: RelationSystem = field(repr=False)
    # (GF(2) echelon with named-class tags, tag -> name)
    _gf2: tuple = field(repr=False, default=None)


class UnitElimination:
    """The quotient map that removes the unit pivots of the exact relations.

    U is the set of rows of the exact-relation echelon whose pivot is 1,
    and pi(x) is the remainder of reducing x by U (`echelon_reduce`,
    which sweeps the columns in ascending order), written in the
    coordinates that are not pivots of U, renumbered 0..rank-1 in order.

    - pi is linear.  Each row of U has entry 1 at its pivot and nothing
      to the left of it, so the sweep clears every U-pivot column and
      never refills one it has passed; the quotient a // 1 = a is exact,
      so pi(x) is the unique element of x + span(U) that vanishes on the
      U-pivot columns.
    - The kernel of pi is span(U), and pi maps Z^dim onto Z^rank: a
      vector supported off the U-pivot columns is its own image.
    - span(U) lies inside the exact lattice, hence inside every sample's
      lattice L, so Z^dim / L = Z^rank / pi(L), and pi(L) is spanned by
      the images of L's generators.  Reduced mod 2, pi is the same kind
      of projection over GF(2), with kernel span(U mod 2) inside L mod 2;
      so the GF(2) ranks and the greedy named basis are unchanged too.

    `base` holds the images of the non-unit exact rows, which span pi of
    the exact lattice and so start every sample.  `ambiguity` maps each
    key to its projected basis and the bit mask of its nonzero images.
    """

    def __init__(self, exact, ambient_rank, ambiguity_chains):
        self.units = {j: row for j, row in exact.pivots.items() if row[j] == 1}
        free = [c for c in range(ambient_rank) if c not in self.units]
        self.index = {c: t for t, c in enumerate(free)}
        self.rank = len(self.index)
        self.full = (1 << self.rank) - 1
        self.base = [
            self(row) for j, row in sorted(exact.pivots.items())
            if j not in self.units
        ]
        self.ambiguity = {}
        for key, chains in ambiguity_chains.items():
            basis = [self(c) for c in chains]
            self.ambiguity[key] = (basis, sum(
                1 << t for t, vec in enumerate(basis) if vec))

    def __call__(self, coords):
        """pi(coords), as a new sparse vector."""
        rem = echelon_reduce(self.units, coords)
        return {self.index[c]: v for c, v in rem.items()}


def compute_h1(spec, samples=17, seed=0, extra_relations=None):
    """Invariants and a named basis of the twisted first homology group.

    The group is Z / L, where Z = ker(boundary) is the cycle lattice in
    the chain space Z^dim and L is spanned by the relation chains.  It
    is computed in Z^dim, with no basis of Z:

    - Z^dim / Z is the image of the boundary map, which is free, so
      Z^dim = Z (+) C with C free of rank rank(boundary).
    - L lies in Z, so Z^dim / L = Z / L (+) C.  The torsion is the same
      and the free rank is larger by rank(boundary) = d, so the free
      rank is taken against `RelationSystem.rank` = dim - d.
    - Z meets L + 2 Z^dim in L + 2 Z: if a cycle is l + 2x with l in L,
      then 2x is a cycle, so x is one.  So Z / (L + 2 Z) embeds in
      Z^dim / (L + 2 Z^dim), cycles are independent mod 2 in one exactly
      when they are in the other, and the named basis and
      `express_class` reduce chains mod 2 in Z^dim.

    With `samples` > 1 and partial relations present, the ambiguity of
    every kept partial row (`RelationSystem.partials`) is re-sampled per
    run, and UnstableSampling is raised unless the invariants agree.
    Every sample, taken by its Smith form (`snf_factors`), and the named
    basis work in the projections held on the system (see
    `UnitElimination`); a draw skips the basis vectors that project to 0.
    """
    t0 = time.perf_counter()
    if samples < 1:
        raise ValueError("need at least one sample")
    system = build_relation_system(spec, extra_relations)
    elim = system.elimination
    rank = system.rank - len(elim.units)  # the ambient rank for Z / L
    partials = system.partials
    rng = random.Random(seed)
    nsamples = samples if partials else 1
    invariants = None
    for m in range(nsamples):
        rows = list(elim.base)
        for p in partials:
            basis, mask = elim.ambiguity[p.ambiguity]
            bits = rng.getrandbits(len(basis)) & mask if m and basis else 0
            row = dict(p.projected) if bits else p.projected
            while bits:
                t = (bits & -bits).bit_length() - 1
                vec_axpy(row, basis[t], 1)
                bits &= bits - 1
            rows.append(row)
        inv = AbelianInvariants.from_factors(snf_factors(rows), rank)
        if invariants is None:
            invariants = inv
        elif inv != invariants:
            raise UnstableSampling(
                "sample %d gave %s, sample 0 gave %s"
                % (m, inv.describe(), invariants.describe())
            )

    named, gf2 = _named_basis(system, invariants)
    ms = int((time.perf_counter() - t0) * 1000)
    return H1Result(spec, invariants, named, SamplingReport(nsamples, True),
                    ms, system, gf2)


def _named_basis(system, invariants):
    """Greedy GF(2) reduction of the candidate list over the relations.

    The relations are sample 0's rows, the elimination's `base` and the
    kept rows; their GF(2) echelon, extended by the candidates, is
    returned for `express_class`.  Valid once the quotient is an
    elementary abelian 2-group: class equality then reduces to equality
    modulo the relations and twice the chain space (see `compute_h1`).
    """
    elim = system.elimination
    rows = {}
    for row in elim.base + [p.projected for p in system.partials]:
        gf2_insert(rows, parity_mask(row), elim.full)
    named = []
    tagmap = {}
    if invariants.is_elementary_two_group():
        for t, (name, chain) in enumerate(named_candidates(system.space)):
            require_cycle(system.space, chain)
            vec = parity_mask(elim(chain)) | 1 << (elim.rank + t)
            if gf2_insert(rows, vec, elim.full) & elim.full:
                named.append((name, chain))
                tagmap[t] = name
    return named, (rows, tagmap)


def express_class(result, chain):
    """The image of a cycle in the quotient, written in the named basis.

    Returns a dict mapping basis class name -> 1 (empty dict for the
    zero class); raises NotACycle if the chain has nonzero boundary.
    """
    rows, tagmap = result._gf2
    elim = result.system.elimination
    width = elim.rank
    require_cycle(result.system.space, chain)
    vec = gf2_reduce(rows, parity_mask(elim(chain)), elim.full)
    if vec & elim.full:
        raise ValueError("class is outside the span of the named basis")
    return {tagmap[t]: 1 for t in range((vec >> width).bit_length())
            if (vec >> width) >> t & 1}
