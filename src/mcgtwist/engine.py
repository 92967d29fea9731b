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
and their ambiguity sublattice are sampled (`RelationSystem.partials`).

What no sample changes is done once per spec.  The exact relations,
and the unit rows of the d coordinates that split the chain space into
the cycle lattice and a free complement (`boundary_witnesses`), are
eliminated by a signed forest, whose map phi every chain is projected
by, and the images of the rows the forest leaves form an echelon that
starts every sample (`UnitElimination`); `compute_h1` builds both on
first use, as it does the filter, and `verify` builds neither.  Equal
projected ambiguity vectors are drawn as one, and the unit singletons
no draw can disturb are split off the sample matrix before the first
sample (`SampleMatrix`); when that leaves nothing a draw can change,
one Smith form serves every sample.
The build solves no linear system and builds no generating family of
the cycle lattice: a slide conjugation's one instance is a sum of the
closed-form cycles v~(j, r) (`chains._vtilde`), its ambiguity basis is
the closed-form K1-K11 (`pmplus_ambiguity_basis`), and no instance
known to lie in its ambiguity sublattice is built (see
`build_relation_system`).
"""

import random
import time
from functools import cached_property

from .catalog import build_catalog, k1_ambiguity_basis, pmplus_ambiguity_basis
from .chains import (
    ChainSpace,
    _vtilde,
    boundary1,
    boundary_witnesses,
    rewrite_relation_all,
)
from .errors import NotACycle, RelationOutsideKernel, UnstableSampling
from .intlin import (
    AbelianInvariants,
    Echelon,
    gf2_insert,
    gf2_reduce,
    parity_mask,
    peel_unit_singletons,
    snf_factors,
    vec_axpy,
)


class PartialRow:
    """One coefficient instance of a partial relation: the pinned chain,
    a cycle that differs from the true relation row by an unknown element
    of its ambiguity sublattice, the key of that sublattice and, once the
    filter keeps it, its projection by `RelationSystem.elimination`."""

    def __init__(self, rid, base, ambiguity):
        self.rid = rid
        self.base = base
        self.ambiguity = ambiguity
        self.projected = None


class RelationSystem:
    """The checked relation chains of one spec.

    The build holds what every caller reads: the exact chains, every
    pinned partial instance in catalog order (`instances`) and each
    ambiguity key's basis chains, all checked to be cycles.  The
    elimination of the exact relations (a signed forest and an echelon
    of the rows it leaves) and the filtered instances (`partials`) are
    read only by the quotient, so each is computed on first read and
    then held on the system; `verify` builds neither.  No generating
    family of the cycle lattice is built or held: `verify_spec` builds
    the one its certificate reads.
    """

    def __init__(self, space, catalog, rank, exact, instances,
                 ambiguity_chains):
        self.space = space  # a ChainSpace
        self.catalog = catalog
        self.rank = rank  # of the cycle lattice: space.dim - d
        self.exact = exact  # (rid, chain)
        self.instances = instances  # every built PartialRow, in catalog order
        self.ambiguity_chains = ambiguity_chains  # key -> list of chains

    @property
    def exact_coords(self):  # the exact chains, as perfbench counts them
        return [vec for _, vec in self.exact]

    @cached_property
    def elimination(self):
        """The `UnitElimination` of the exact chains followed by the unit
        rows e_c, c in J (`boundary_witnesses`).  Its map phi is onto
        Z^rank with its kernel inside E + Z^J, E the exact lattice, and
        Z^dim = Z (+) Z^J, so for a lattice L with E inside L inside Z
        it reads Z / L = Z^dim / (L + Z^J) as Z^rank / phi(L)."""
        rows = [vec for _, vec in self.exact]
        rows += [{c: 1} for c in boundary_witnesses(self.space)]
        return UnitElimination(rows, self.space.dim, self.ambiguity_chains)

    @cached_property
    def partials(self):
        """The kept partial instances, a subsequence of `instances`.

        A partial relation pins its row down only modulo its ambiguity
        lattice A, so an instance is informative exactly when its pinned
        row p escapes E + A, E the exact lattice.  Only those are kept,
        each on its own: whether p is kept reads no other instance, so
        neither the catalog order nor the other instances of its key
        change it.  An instance whose pinned row lies in E + A is assumed
        to add nothing to the quotient; its true row p + a, a in A, lies
        in E + A too, but A is not inside the relation lattice, so this
        is not proved here, and the evidence is agreement with
        `certify.oracle`.  The sampling in compute_h1 checks the kept
        rows' unknown parts.

        For the k1 key from genus 7 on, the filter and the sampling need
        no assumption: there A lies in E (`k1_ambiguity_basis`), so a
        dropped p lies in E, and so does its true row p + a.  And the
        key has no basis chain to draw, so sample 0's rows are the true
        ones.

        The test is asked in the coordinates of `elimination`, with the
        same outcome as in all dim coordinates.  For M = E + A, phi(p)
        lies in phi(M) iff p lies in M + Z^J, since ker phi lies in
        E + Z^J (J the coordinates of `boundary_witnesses`); and Z meets
        M + Z^J in M, as M lies in Z and Z^dim = Z (+) Z^J, so for the
        cycle p this is p in M.  phi(E) = span(`base`), and phi(A) is
        spanned by the key's distinct nonzero images, so each key's
        phi(M) is one fixed `Echelon`: a copy of the elimination's
        pivots, which are already an echelon, with the images inserted.
        Every instance is projected once, here.
        """
        elim = self.elimination
        filters = {}
        for key, (_, groups) in elim.ambiguity.items():
            filters[key] = filt = Echelon()
            filt.pivots = dict(elim.pivots)  # no insert changes a row
            for _, image in groups:
                filt.insert(dict(image))
        kept = []
        for p in self.instances:
            row = elim(p.base)
            if not filters[p.ambiguity].contains(row):
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

    Partial relations are resolved into a pinned chain plus a reference
    to the ambiguity sublattice A, whose chains are taken once per key
    in closed form: a basis of A for "pm+" (`pmplus_ambiguity_basis`),
    and for "k1" chains A' with A' + E = A + E, E the exact lattice
    (`k1_ambiguity_basis`), which is all the filter, the samples and
    `descent_check` read of A.  Every chain is checked here, in catalog
    order, and nothing else is computed: the elimination of the exact
    chains and the kept instances are built on first read (see
    `RelationSystem`).

    A slide conjugation x v_j = v_j y, x some a_i or e_i, builds one
    instance, at the first coefficient xi that x moves.  With B_x =
    psi(x)^-1 - I and w = B_x xi, its pinned chain is sum_r w_r
    v~(j, r), a sum of the cycles v~(j, r) = [v_j] (x) xi_r + corr(j, r)
    taken in closed form (`chains._vtilde`, the K12 members of
    `kernel_generator_list`):

    - The relation at xi is the exact part [x] (x) xi + [v_j] (x) w
      less an unknown chain u on the pm+ kinds with boundary
      psi(v_j)^-1 w = w + B_{v_j} w; two such u differ by a pm+ cycle,
      an element of A.  Each corr(j, r) lies on the pm+ kinds and, as
      v~(j, r) is a cycle, has boundary -B_{v_j} e_r, so u = [x] (x) xi
      - sum_r w_r corr(j, r) is one, and the exact part less it is the
      sum above.
    - At a vector zeta that x fixes, w = 0 and the true row is
      [x] (x) zeta - u, a pm+ cycle: it lies in A, so its instance
      would be dropped (`RelationSystem.partials`).
    - The other coefficient xi' that x moves gives -w: the moved
      columns of B_{a_i} (xi_i and xi_{i+1}) are +-(gamma_i +
      gamma_{i+1}), and those of B_{e_i} (xi_1 and xi_2) are
      +-(gamma_1 + gamma_2 + delta_1 + ... + delta_i)
      (`expected_boundary`, which `verify` checks).  So x fixes
      xi + xi', and, as the relation's rows are linear in the
      coefficient, the true row at xi' is minus the one at xi plus the
      one at xi + xi', which lies in A as above.  So an instance at
      xi' adds nothing beyond the built one and an instance the filter
      drops.
    - Any other choice of u, such as the pm+ boundary solver's, moves
      each pinned chain by an element of A.  That changes no membership
      in E + A, so the filter keeps the same instances.
    - `descent_check` loses nothing: it is linear mod 2, and each
      instance not built is minus a built one, or 0, plus an element of
      A, whose basis chains it walks.

    The cycle lattice has rank dim - d: the boundary image has the d
    columns of `boundary_witnesses` as a basis.
    """
    spec.require_free_module()
    space = ChainSpace(spec)
    catalog = build_catalog(spec, space)
    if extra_relations:
        catalog = catalog + list(extra_relations)

    system = RelationSystem(
        space=space, catalog=catalog,
        rank=space.dim - spec.d, exact=[], instances=[],
        ambiguity_chains={},
    )

    def check(rid, chain):
        require_cycle(space, chain, error=lambda msg: RelationOutsideKernel(
            "%s: %s" % (rid, msg)))

    def add_partial(rid, base, key):
        check(rid, base)
        if key not in system.ambiguity_chains:
            chains = (k1_ambiguity_basis(space) if key == "k1"
                      else pmplus_ambiguity_basis(space))
            for c in chains:
                require_cycle(space, c, error=RelationOutsideKernel)
            system.ambiguity_chains[key] = chains
        system.instances.append(PartialRow(rid, base, key))

    for entry in catalog:
        if entry.kind == "word":
            for vec in rewrite_relation_all(space, entry.lhs, entry.rhs):
                if vec:
                    check(entry.rid, vec)
                    system.exact.append((entry.rid, vec))
        elif entry.kind != "partial":
            check(entry.rid, entry.vector)
            system.exact.append((entry.rid, entry.vector))
        elif entry.ambiguity == "k1":
            add_partial(entry.rid, entry.vector, "k1")
        else:
            x, vj = entry.conjugation
            for xi, w in enumerate(space._bcol[x], 1):
                if w:  # the first coefficient x moves: see above
                    base = {}
                    for r, c in w.items():
                        vec_axpy(base, _vtilde(space, vj.index, r + 1), c)
                    add_partial("%s:xi%d" % (entry.rid, xi), base, "pm+")
                    break
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


class SamplingReport:
    def __init__(self, samples, stable):
        self.samples = samples
        self.stable = stable


class H1Result:
    """What `compute_h1` returns for one spec: the invariants, the named
    basis, the sampling report, the wall time in ms and the relation
    system, whose `space.spec` is the spec."""

    def __init__(self, invariants, named_basis, sampling_report, ms,
                 system, gf2=None):
        self.invariants = invariants  # AbelianInvariants
        self.named_basis = named_basis
        self.sampling_report = sampling_report
        self.ms = ms
        self.system = system
        # (GF(2) echelon with named-class tags, tag -> name)
        self._gf2 = gf2


class UnitElimination:
    """The quotient map phi, a signed forest, that removes what the
    exact relations make redundant.

    The rows it takes, called exact below, are the exact chains and then
    the unit rows e_c, c in J (`RelationSystem.elimination`; J may be
    empty), and E + Z^J is their span, E the exact lattice.

    The exact rows +-e_a and +-e_a +- e_b are joined in a signed
    union-find over the dim chain coordinates: every coordinate c is
    tied to the root of its component, its smallest coordinate, by a
    sign s_c with e_c = s_c e_root modulo E + Z^J (by induction along
    the links, each a forest row).  A row +-e_a kills the component of
    a.  A row v_a e_a + v_b e_b whose ends already share a root closes
    a cycle; it is balanced when v_a s_a + v_b s_b = 0 and adds
    nothing, and otherwise it is +-2 e_root modulo E + Z^J and
    joins the residual rows.  phi maps e_c to s_c e_t, t the index of
    c's root among the roots of live components in ascending order, and
    to 0 on a killed component; it is the identity on a coordinate no
    forest row meets.

    - phi maps Z^dim onto Z^rank, rank the number of live components:
      it maps each root onto its own coordinate.
    - Its kernel is spanned by e_c - s_c e_root on live components and
      by e_c on killed ones, all in E + Z^J.  A forest row that links
      two components, or kills a live one, maps to 0; every other exact
      row is residual, so phi(E + Z^J) is spanned by the images of the
      residual rows (the rows that are not forest rows and the
      unbalanced cycles), taken through the final phi.  Each e_c, c in
      J, kills its component, so phi(Z^J) = 0.
    - So Z^dim / L = Z^rank / phi(L) for every lattice L that contains
      E + Z^J, and likewise Z^dim / (L + 2 Z^dim) = Z^rank / (phi(L) +
      2 Z^rank): a map onto with its kernel inside L identifies both
      quotients.  For every sample's lattice L, which contains E, this
      reads Z^dim / (L + Z^J) = Z^rank / phi(L), with phi(L) spanned by
      the images of L's generators, and the GF(2) ranks and the greedy
      named basis are the same in either.

    `base` holds the pivot rows of an echelon of the residual images
    (`pivots`), entered shortest first to keep the fill-in small; they
    span phi(E) and so start every sample.  `ambiguity` maps each key
    to its number of basis chains and its groups: each distinct nonzero
    image of a basis chain, with the bit mask of the chains that have
    it.
    """

    def __init__(self, exact, dim, ambiguity_chains):
        up = list(range(dim))
        sign = [1] * dim
        killed = [False] * dim

        def find(c):  # (root, s_c), compressing the path
            path = []
            while up[c] != c:
                path.append(c)
                c = up[c]
            s = 1
            for x in reversed(path):
                s *= sign[x]
                sign[x], up[x] = s, c
            return c, s

        residual = []
        for row in exact:
            size = len(row)
            if size == 1:
                ((a, va),) = row.items()
                if va == 1 or va == -1:
                    killed[find(a)[0]] = True
                    continue
            elif size == 2:
                (a, va), (b, vb) = row.items()
                if (va == 1 or va == -1) and (vb == 1 or vb == -1):
                    (ra, sa), (rb, sb) = find(a), find(b)
                    if ra != rb:
                        if rb < ra:
                            ra, rb = rb, ra
                        up[rb] = ra
                        sign[rb] = -va * sa * vb * sb
                        killed[ra] = killed[ra] or killed[rb]
                        continue
                    if not va * sa + vb * sb:  # a balanced cycle
                        continue
            residual.append(row)
        self.phi = phi = [None] * dim
        live = {}
        for c in range(dim):
            root, s = (c, 1) if up[c] == c else find(c)
            if not killed[root]:
                if root == c:
                    live[c] = len(live)
                phi[c] = (live[root], s)
        self.rank = len(live)
        self.full = (1 << self.rank) - 1

        echelon = Echelon(sorted(filter(None, map(self, residual)), key=len))
        self.pivots = echelon.pivots
        self.base = [row for _, row in sorted(echelon.pivots.items())]
        self.ambiguity = {}
        for key, chains in ambiguity_chains.items():
            groups = {}
            for t, chain in enumerate(chains):
                image = self(chain)
                if image:
                    group = groups.setdefault(frozenset(image.items()),
                                              [0, image])
                    group[0] |= 1 << t
            self.ambiguity[key] = (len(chains),
                                   [tuple(g) for g in groups.values()])

    def __call__(self, chain):
        """phi(chain), as a new sparse vector."""
        out = {}
        phi = self.phi
        for c, v in chain.items():
            image = phi[c]
            if image is not None:
                t, s = image
                w = out.get(t, 0) + s * v
                if w:
                    out[t] = w
                elif t in out:
                    del out[t]
        return out


class SampleMatrix:
    """The rows of every sample of one spec, with the unit singletons no
    draw can disturb split off once.

    A sample's rows are the elimination's `base` and, for each kept
    partial row p, its projection plus, in sample m > 0, the images of a
    random set of its key's basis chains.  Equal images are grouped: with bits the draw,
    the row adds popcount(bits & mask) times each distinct image, which
    is the sum of the drawn images, from the same random bits.

    So every draw is confined to the rows of the kept partials whose key
    has a nonzero image, and to the columns S those images meet.
    `peel_unit_singletons` splits off, once, every unit singleton that
    stays one in each sample: a +-1 alone in a column outside S, or a
    fixed row +-e_c (proof in `_peel_unit_singletons`).  Every sample's
    invariant factors are then one 1 per column of `cut` followed by
    those of the rows `rows` returns.  `rest` maps the index of each row
    left (in the elimination's `base` followed by the kept partial rows)
    to its entries off `cut`, and `base` holds the nonzero ones of the
    first kind.  A draw changes a row only by the images it keeps off
    `cut`, so when no row left keeps one (`vacuous`) every draw gives
    sample 0's rows.
    """

    def __init__(self, elim, partials):
        self.draws = [elim.ambiguity[p.ambiguity] for p in partials]
        nbase = len(elim.base)
        moving = {i for i, (_, groups) in enumerate(self.draws, nbase)
                  if groups}
        support = {c for i in moving
                   for _, image in self.draws[i - nbase][1] for c in image}
        self.rest, cut = peel_unit_singletons(
            elim.base + [p.projected for p in partials], moving, support)
        self.cut = cut = set(cut)
        self.base = [row for i, row in self.rest.items() if i < nbase and row]
        self.slots = []  # per kept partial: None if peeled, else (row, groups)
        for i, (_, groups) in enumerate(self.draws, nbase):
            if i not in self.rest:
                self.slots.append(None)
                continue
            self.slots.append((self.rest[i], [
                (mask, {c: v for c, v in image.items() if c not in cut})
                for mask, image in groups]))
        self.vacuous = not any(image for slot in self.slots if slot
                               for _, image in slot[1])

    def rows(self, rng=None):
        """One sample's rows left after the peel: sample 0 with no `rng`,
        and with one the next draw.  Every kept partial row whose key has
        basis chains draws one bit per chain, peeled or not, so each row's
        draw is the bits it would take with no peel."""
        rows = list(self.base)
        for (nbits, _), slot in zip(self.draws, self.slots):
            bits = rng.getrandbits(nbits) if rng is not None and nbits else 0
            if slot is None:
                continue
            row, groups = slot
            if bits:
                row = dict(row)
                for mask, image in groups:
                    count = (bits & mask).bit_count()
                    if count:
                        vec_axpy(row, image, count)
            if row:
                rows.append(row)
        return rows


def compute_h1(spec, samples=17, seed=0, extra_relations=None):
    """Invariants and a named basis of the twisted first homology group.

    The group is Z / L, where Z = ker(boundary) is the cycle lattice in
    the chain space Z^dim and L is spanned by the relation chains.  It
    is computed in Z^dim, with no basis of Z: Z^dim = Z (+) Z^J, J the
    d coordinates of `boundary_witnesses`, and L lies in Z, so
    Z / L = Z^dim / (L + Z^J), and as 2 Z^dim = 2 Z (+) 2 Z^J, mod 2
    Z / (L + 2 Z) = Z^dim / (L + Z^J + 2 Z^dim).  The elimination takes
    the unit rows of Z^J with the exact chains
    (`RelationSystem.elimination`), so its coordinates, one per live
    component of its signed forest, carry Z / L, free rank included,
    and the named basis and `express_class` reduce chains mod 2 in
    them.

    With `samples` > 1 and partial relations present, the ambiguity of
    every kept partial row (`RelationSystem.partials`) is re-sampled per
    run, and UnstableSampling is raised unless the invariants agree.
    Every sample and the named basis work in the projections held on
    the system, and every sample starts from the elimination's `base`
    (see `UnitElimination`).  The unit singletons no draw can
    disturb are split off once (`SampleMatrix`), each as a factor 1, and
    each sample takes the Smith form (`snf_factors`) of the rows left,
    against the coordinates left for Z / L; when no draw can change
    those rows (`SampleMatrix.vacuous`), sample 0's stands for all.
    """
    t0 = time.perf_counter()
    if samples < 1:
        raise ValueError("need at least one sample")
    system = build_relation_system(spec, extra_relations)
    elim = system.elimination
    partials = system.partials
    nsamples = samples if partials else 1
    matrix = SampleMatrix(elim, partials)
    rank = elim.rank - len(matrix.cut)
    rng = random.Random(seed)
    invariants = None
    for m in range(1 if matrix.vacuous else nsamples):
        rows = matrix.rows(rng if m else None)
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
    return H1Result(invariants, named, SamplingReport(nsamples, True), ms,
                    system, gf2)


def _named_basis(system, invariants):
    """Greedy GF(2) reduction of the candidate list over the relations.

    The relations are sample 0's rows, the elimination's `base` and the
    kept rows; their GF(2) echelon, extended by the candidates, is
    returned for `express_class`.  Valid once the quotient is an
    elementary abelian 2-group: class equality then reduces to equality
    modulo the relations, Z^J and twice the chain space, that is, to
    equality mod 2 in the elimination's coordinates (see `compute_h1`).
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
    zero class); raises NotACycle if the chain is not one of the chain
    space (a coordinate outside range(dim), or a stored 0) or has
    nonzero boundary.
    """
    rows, tagmap = result._gf2
    space, elim = result.system.space, result.system.elimination
    for c, v in chain.items():
        if not (v and 0 <= c < space.dim):
            raise NotACycle("not a chain of the space: {%r: %r}" % (c, v))
    require_cycle(space, chain)
    vec = gf2_reduce(rows, parity_mask(elim(chain)), elim.full)
    if vec & elim.full:
        raise ValueError("class is outside the span of the named basis")
    tags = vec >> elim.rank
    return {tagmap[t]: 1 for t in range(tags.bit_length()) if tags >> t & 1}
