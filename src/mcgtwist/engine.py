"""The end-to-end pipeline: cycle lattice, relation lattice, quotient.

The first homology group with twisted coefficients is the quotient of
the cycle lattice by the sublattice generated by the rewritten
relations.  Word and class relations contribute fixed vectors.  Partial
relations contribute a pinned part plus an unknown element of a known
ambiguity sublattice; the unknown is handled by sampling: sample 0 takes
it to be zero, later samples add a seeded random {0,1}-combination of
ambiguity basis vectors, and the quotient invariants must agree across
all samples.
"""

import random
import time
from dataclasses import dataclass, field

from .catalog import (
    build_catalog,
    k1_ambiguity_basis,
    partial_exact_part,
    partial_target_boundary,
    pmplus_boundary_solver,
)
from .chains import ChainSpace, ChainVector, cycle_lattice, rewrite_relation_all
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
    snf_factors,
    vec_axpy,
)


@dataclass
class PartialRow:
    """One coefficient instance of a partial relation: the pinned chain
    (exact part minus a particular solution of the unknown part) and the
    key of the ambiguity sublattice it is defined up to."""

    rid: str
    base: ChainVector
    coords: dict
    ambiguity: str


@dataclass
class RelationSystem:
    """Everything the quotient needs, precomputed once per spec."""

    spec: object
    space: ChainSpace
    catalog: list
    lattice: Echelon  # the cycle lattice
    col_of: dict
    exact: list  # (rid, ambient ChainVector)
    exact_coords: list
    exact_echelon: Echelon  # the lattice spanned by exact_coords
    partials: list
    ambiguity_chains: dict  # key -> list of ambient ChainVector
    ambiguity_coords: dict  # key -> list of coordinate dicts

    @property
    def rank(self):
        return self.lattice.rank


def to_coords(system, chain, error=NotACycle):
    """Coordinates of a chain in the cycle-lattice basis (dense index ->
    coefficient); raises if the chain is not a cycle in the lattice."""
    coeffs, rem = system.lattice.reduce(dict(chain))
    if rem:
        raise error(
            "not in the cycle lattice: %s" % system.space.format_chain(chain)
        )
    return {system.col_of[j]: v for j, v in coeffs.items() if v}


def build_relation_system(spec, extra_relations=None):
    """Rewrite the whole catalog into cycle-lattice coordinates.

    Partial relations are resolved into a pinned coordinate row (their
    unknown part replaced by one particular solution) plus a reference
    to the ambiguity sublattice, whose basis is computed once per kind.

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
      Z^r / L = Z^r' / pi(L), is the same for either U.

    The partials keep catalog order, because it decides which partial
    instances are kept.
    """
    spec.require_free_module()
    space = ChainSpace(spec)
    lattice = cycle_lattice(space)
    col_of = {j: t for t, j in enumerate(lattice.pivot_cols())}
    catalog = build_catalog(spec, space)
    if extra_relations:
        catalog = catalog + list(extra_relations)

    system = RelationSystem(
        spec=spec, space=space, catalog=catalog, lattice=lattice,
        col_of=col_of, exact=[], exact_coords=[], exact_echelon=None,
        partials=[], ambiguity_chains={}, ambiguity_coords={},
    )

    def coords(rid, chain):
        return to_coords(
            system, chain,
            error=lambda msg: RelationOutsideKernel("%s: %s" % (rid, msg)),
        )

    for entry in catalog:
        if entry.kind == "partial":
            continue
        if entry.kind == "word":
            for vec in rewrite_relation_all(space, entry.lhs, entry.rhs):
                if vec:
                    system.exact.append((entry.rid, vec))
                    system.exact_coords.append(coords(entry.rid, vec))
        else:
            system.exact.append((entry.rid, entry.vector))
            system.exact_coords.append(coords(entry.rid, entry.vector))
    system.exact_echelon = Echelon(sorted(system.exact_coords, key=len))

    # A partial relation pins its row down only modulo its ambiguity
    # sublattice, so an instance is informative exactly when its pinned
    # part escapes the span of the exact relations, the ambiguity
    # sublattice and the instances already kept.  Only those are kept:
    # the true rows of the dropped instances are assumed to add nothing
    # to the quotient.  Their pinned rows do change it, so this is not
    # proved here; the evidence is agreement with `certify.oracle`.  The
    # sampling in compute_h1 checks the kept rows' unknown parts.
    pm_solver = None
    filters = {}

    def ambiguity(key):
        if key not in system.ambiguity_chains:
            if key == "pm+":
                chains = [ChainVector(row) for row in pm_solver.kernel_basis()]
            else:
                chains = k1_ambiguity_basis(space)
            system.ambiguity_chains[key] = chains
            system.ambiguity_coords[key] = [
                to_coords(system, c, error=RelationOutsideKernel)
                for c in chains
            ]
            filt = system.exact_echelon.clone()
            for c in system.ambiguity_coords[key]:
                filt.insert(dict(c))
            filters[key] = filt
        return filters[key]

    def add_partial(rid, base, key):
        c = coords(rid, base)
        filt = ambiguity(key)
        if not filt.contains(c):
            filt.insert(dict(c))
            system.partials.append(PartialRow(rid, base, c, key))

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
                rid = "%s:xi%d" % (entry.rid, xi)
                base = partial_exact_part(space, x, vj, xi)
                try:
                    particular = pm_solver.solve(
                        partial_target_boundary(space, x, vj, xi)
                    )
                except NoIntegerSolution as exc:
                    raise NoIntegerSolution("%s: %s" % (rid, exc)) from None
                for flat, c in particular.items():
                    base.add_term(flat, -c)
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


def _parity_mask(coords):
    m = 0
    for c, v in coords.items():
        if v & 1:
            m |= 1 << c
    return m


def _gf2_reduce(rows, vec, full):
    """Reduce a bit vector against a GF(2) echelon keyed by the lowest set
    bit of the coordinate part (the bits in `full`).  Returns the
    residual: its coordinate part is zero or starts at a non-pivot bit."""
    while vec & full:
        low = vec & full
        r = rows.get(low & -low)
        if r is None:
            break
        vec ^= r
    return vec


def _gf2_insert(rows, vec, full):
    """Insert a bit vector into a GF(2) echelon (see `_gf2_reduce`);
    returns the residual after reduction."""
    vec = _gf2_reduce(rows, vec, full)
    low = vec & full
    if low:
        rows[low & -low] = vec
    return vec


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
    # (GF(2) echelon with named-class tags, UnitElimination, tag -> name)
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
    - The kernel of pi is span(U), and pi maps Z^r onto Z^rank: a vector
      supported off the U-pivot columns is its own image.
    - span(U) lies inside the exact lattice, hence inside every sample's
      lattice L, so Z^r / L = Z^rank / pi(L), and pi(L) is spanned by
      the images of L's generators.  Reduced mod 2, pi is the same kind
      of projection over GF(2), with kernel span(U mod 2) inside L mod 2;
      so the GF(2) ranks and the greedy named basis are unchanged too.

    `base` holds the images of the non-unit exact rows, which span pi of
    the exact lattice and so start every sample.
    """

    def __init__(self, exact, ambient_rank):
        self.units = {j: row for j, row in exact.pivots.items() if row[j] == 1}
        self.index = {}
        for c in range(ambient_rank):
            if c not in self.units:
                self.index[c] = len(self.index)
        self.rank = len(self.index)
        self.full = (1 << self.rank) - 1
        self.base = [
            self(row) for j, row in sorted(exact.pivots.items())
            if j not in self.units
        ]

    def __call__(self, coords):
        """pi(coords), as a new sparse vector."""
        _, rem = echelon_reduce(self.units, coords)
        index = self.index
        return {index[c]: v for c, v in rem.items()}


def compute_h1(spec, samples=17, seed=0, extra_relations=None, system=None):
    """Invariants and a named basis of the twisted first homology group.

    With `samples` > 1 and partial relations present, the ambiguity of
    every partial row is re-sampled per run and the invariants must
    agree across all runs; otherwise UnstableSampling is raised.  Every
    sample and the named basis work modulo the unit pivots of the exact
    relations (see `UnitElimination`): the partial rows and the
    ambiguity basis vectors are projected once, a sample's draw skips
    the basis vectors that project to zero, and a sample's invariants
    are the Smith form (`snf_factors`) of its projected rows.
    """
    t0 = time.perf_counter()
    if samples < 1:
        raise ValueError("need at least one sample")
    if system is None:
        system = build_relation_system(spec, extra_relations)
    elim = UnitElimination(system.exact_echelon, system.rank)
    partials = [(elim(p.coords), p.ambiguity) for p in system.partials]
    ambiguity = {}
    for key, coords in system.ambiguity_coords.items():
        basis = [elim(c) for c in coords]
        mask = sum(1 << t for t, vec in enumerate(basis) if vec)
        ambiguity[key] = (basis, mask)

    rng = random.Random(seed)
    nsamples = samples if partials else 1
    invariants = None
    for m in range(nsamples):
        rows = []
        for coords, key in partials:
            basis, mask = ambiguity[key]
            bits = rng.getrandbits(len(basis)) & mask if m and basis else 0
            row = dict(coords) if bits else coords
            while bits:
                t = (bits & -bits).bit_length() - 1
                vec_axpy(row, basis[t], 1)
                bits &= bits - 1
            rows.append(row)
        lattice = elim.base + rows
        inv = AbelianInvariants.from_factors(snf_factors(lattice), elim.rank)
        if invariants is None:
            invariants, first = inv, lattice
        elif inv != invariants:
            raise UnstableSampling(
                "sample %d gave %s, sample 0 gave %s"
                % (m, inv.describe(), invariants.describe())
            )

    named, gf2 = _named_basis(system, invariants, first, elim)
    ms = int((time.perf_counter() - t0) * 1000)
    return H1Result(spec, invariants, named, SamplingReport(nsamples, True),
                    ms, system, gf2)


def _named_basis(system, invariants, relations, elim):
    """Greedy GF(2) reduction of the candidate list over the relations.

    `relations` are sample 0's rows in the coordinates of `elim`; their
    GF(2) echelon, extended by the candidates, is returned for
    `express_class`.  Valid once the quotient is known to be an
    elementary abelian 2-group: class equality then reduces to equality
    modulo the relations and twice the cycle lattice.
    """
    rows = {}
    for row in relations:
        _gf2_insert(rows, _parity_mask(row), elim.full)
    width = elim.rank
    named = []
    tagmap = {}
    if invariants.is_elementary_two_group():
        for t, (name, chain) in enumerate(named_candidates(system.space)):
            vec = _parity_mask(elim(to_coords(system, chain)))
            vec |= 1 << (width + t)
            if _gf2_insert(rows, vec, elim.full) & elim.full:
                named.append((name, chain))
                tagmap[t] = name
    return named, (rows, elim, tagmap)


def express_class(result, chain):
    """The image of a cycle in the quotient, written in the named basis.

    Returns a dict mapping basis class name -> 1 (empty dict for the
    zero class); raises NotACycle if the chain has nonzero boundary.
    """
    rows, elim, tagmap = result._gf2
    width = elim.rank
    vec = _parity_mask(elim(to_coords(result.system, chain)))
    vec = _gf2_reduce(rows, vec, elim.full)
    if vec & elim.full:
        raise ValueError("class is outside the span of the named basis")
    return {tagmap[t]: 1 for t in range((vec >> width).bit_length())
            if (vec >> width) >> t & 1}
