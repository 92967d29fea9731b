"""The relation catalog: everything that dies in the homology quotient.

Three kinds of entries.  Word relations hold verbatim in the group and
are rewritten over every module basis vector.  Class relations are
chain-level facts imported from the one-boundary-component computation
through the subsurface inclusion; they come with no words.  Partial
relations express a conjugation x v = v y where y is known to exist and
to avoid puncture slides and braids, but has no explicit word; its
contribution is pinned down up to an ambiguity sublattice.
"""

from .chains import ChainSpace, boundary1, pmplus_generators
from .errors import NoIntegerSolution
from .intlin import ColumnSolver, vec_axpy
from .surface import PMPLUS_KINDS, Gen, Word, evaluate_word


class RelationEntry:
    def __init__(self, rid, kind, lhs=None, rhs=None, vector=None,
                 conjugation=None, ambiguity=None):
        self.rid = rid
        self.kind = kind  # "word", "class" or "partial"
        self.lhs = lhs  # Words, for word relations
        self.rhs = rhs
        self.vector = vector  # class relations; exact part of "k1" partials
        self.conjugation = conjugation  # (x, v_j) for slide conjugations
        self.ambiguity = ambiguity  # "pm+" or "k1"


def _w(*letters):
    return Word([(Gen(k, i), 1) for k, i in letters])


def build_catalog(spec, space=None):
    """All relation entries valid for the given spec, in stable order."""
    if space is None:
        space = ChainSpace(spec)
    g, s, n, k = spec.g, spec.s, spec.n, spec.k
    sn = s + n
    out = []

    def word(rid, lhs, rhs):
        out.append(RelationEntry(rid, "word", lhs=lhs, rhs=rhs))

    def cls(rid, terms):
        out.append(RelationEntry(rid, "class", vector=space.chain(terms)))

    for j in range(1, g - 1):
        word("R1:%d" % j, _w(("a", j), ("a", j + 1), ("a", j)),
             _w(("a", j + 1), ("a", j), ("a", j + 1)))
    for j in range(1, sn):
        word("R2:%d" % j, _w(("a", 1), ("e", j)), _w(("e", j), ("a", 1)))
        word("R3:%d" % j, _w(("a", 2), ("e", j), ("a", 2)),
             _w(("e", j), ("a", 2), ("e", j)))
    if g in (3, 4):
        for t in range(1, s):
            for j in range(1, g):
                word("R4:%d:%d" % (j, t), _w(("a", j), ("d", t)),
                     _w(("d", t), ("a", j)))
            word("R5:%d" % t, _w(("u", 1), ("d", t)), _w(("d", t), ("u", 1)))
            for j in range(1, sn):
                word("R6:%d:%d" % (j, t), _w(("e", j), ("d", t)),
                     _w(("d", t), ("e", j)))
    if g == 3:
        word("R7", (_w(("u", 1), ("e", sn))) ** 2, _w(("a", 1), ("a", 2)) ** 6)
    if g >= 4:
        for j in range(1, sn):
            word("R8:%d" % j, _w(("e", j), ("a", 3)), _w(("a", 3), ("e", j)))
        for j in (1, 2):
            word("R9:%d" % j, _w(("u", j), ("u", j + 1), ("u", j)),
                 _w(("u", j + 1), ("u", j), ("u", j + 1)))
        for j in range(1, sn):
            word("R10:%d" % j, _w(("e", j), ("u", 3)), _w(("u", 3), ("e", j)))
            word("R11:%d" % j, _w(("e", j), ("b", 1)), _w(("b", 1), ("e", j)))

    vgens = [gen for gen in space.gens if gen.kind == "v"]
    for vj in vgens:
        word("R12:%d" % vj.index, _w(("a", 1)) * Word.of(vj),
             Word.of(vj) * _w(("a", 1)))
        word("R13:%d" % vj.index, _w(("u", 1)) * Word.of(vj),
             Word.of(vj) * _w(("u", 1)))
    for vj in vgens:
        for i in range(1, g):
            out.append(RelationEntry("R14:%d:%d" % (vj.index, i), "partial",
                                     conjugation=(Gen("a", i), vj),
                                     ambiguity="pm+"))
        for i in range(1, sn):
            out.append(RelationEntry("R15:%d:%d" % (vj.index, i), "partial",
                                     conjugation=(Gen("e", i), vj),
                                     ambiguity="pm+"))

    if spec.flavor == "m":
        for j in range(1, n):
            for i in range(1, sn):
                if i != s + j:
                    word("R16:%d:%d" % (i, j), _w(("e", i), ("s", j)),
                         _w(("s", j), ("e", i)))
            for i in range(1, g):
                word("R17:%d:%d" % (j, i), _w(("s", j), ("a", i)),
                     _w(("a", i), ("s", j)))
            word("R19:%d" % j, _w(("s", j), ("u", 1)), _w(("u", 1), ("s", j)))
        for j in range(1, n - 1):
            word("R18:%d" % j, _w(("s", j), ("s", j + 1), ("s", j)),
                 _w(("s", j + 1), ("s", j), ("s", j + 1)))
        for j in range(1, n):
            word("R20:%d" % j,
                 _w(("e", s + j - 1), ("e", s + j + 1), ("s", j)),
                 _w(("e", s + j)) * _w(("s", j)) ** 3 * _w(("e", s + j)))

    # Imported class relations (coefficient indices at most g).
    for j in range(1, g):
        for i in list(range(1, j)) + list(range(j + 2, g + 1)):
            if (j, i) != (1, 3):
                cls("I1:%d:%d" % (j, i), [("a", j, i, 1), ("a", 1, 3, -1)])
    cls("I1:2tor", [("a", 1, 3, 2)])
    if g >= 7:
        cls("I1:triv", [("a", 1, 3, 1)])
    for j in range(2, g):
        cls("I2:%d" % j, [("a", j, j, 1), ("a", j, j + 1, 1),
                          ("a", 1, 1, -1), ("a", 1, 2, -1)])
    cls("I2:2tor", [("a", 1, 1, 2), ("a", 1, 2, 2)])
    if g >= 4:
        cls("I2:triv", [("a", 1, 1, 1), ("a", 1, 2, 1)])
    for i in range(4, g + 1):
        cls("I3:%d" % i, [("u", 1, i, 1), ("u", 1, 3, -1)])
    cls("I3:2tor", [("u", 1, 3, 2)])
    cls("I4", [("u", 1, 1, 1), ("u", 1, 2, 1)])
    if g >= 5:
        for i in range(5, g + 1):
            out.append(RelationEntry("I5:%d" % i, "partial",
                                     vector=space.chain([("b", 1, i, 1)]),
                                     ambiguity="k1"))
    if g >= 4:
        cls("I6:2", [("b", 1, 2, 1), ("b", 1, 1, 1)])
        cls("I6:4", [("b", 1, 4, 1), ("b", 1, 1, 1)])
        cls("I6:3", [("b", 1, 3, 1), ("b", 1, 1, -1)])
        cls("I7", [("b", 1, 1, 2), ("a", 1, 1, -2), ("a", 3, 3, -2)])
    return out


def k1_ambiguity_basis(space):
    """Chains A' with A' + E = A + E, for E the exact lattice and A the
    lattice in which the composite-twist classes b_{1,i} (i>4) are known
    to lie: the single-class cycles a_{j,i}, i not in {j, j+1}, i <= g.

    Every such a_{j,i} other than a_{1,3} is a_{1,3} plus the class
    relation I1:j:i = a_{j,i} - a_{1,3}, so A + E = E + Z a_{1,3}.  From
    genus 7 the catalog also has I1:triv = a_{1,3}, so A lies in E and
    A' is empty; below it A' is [a_{1,3}].  Extra relations only enlarge
    E, so the equality holds with them too.
    """
    return [] if space.spec.g >= 7 else [space.chain([("a", 1, 3, 1)])]


def pmplus_ambiguity_basis(space):
    """A basis of the ambiguity lattice A of the slide-conjugation
    partial relations, the kernel of `pmplus_boundary_solver`: the
    members K1-K11 of `kernel_generator_list` (`pmplus_generators`).

    A is Z meets Z^P, for Z the cycle lattice and P the coordinates of
    the pm+ kinds.  The family spans Z (`verify` certifies it), K1-K11
    lie on P, and each of its other members (K12-K16) has a v or s
    coordinate, where their restrictions are independent: K12 is one
    distinct v_{j,i} each, K13 one s_{j,i} each, i off {g+s+j,
    g+s+j+1}, and K14, K15 and K16 are s_{j,a} + s_{j,a+1}, s_{j,a}
    (a = g+s+j, j < n-1) and s_{n-1,g+s+n-1}.  So a cycle on P, written
    as an integer combination of the family, gives each of them
    coefficient 0, and A is the span of K1-K11.
    """
    return [chain for _, chain in pmplus_generators(space)]


def pmplus_boundary_solver(space):
    """Solver for boundaries of chains supported on the orientation- and
    puncture-preserving generator kinds.  Its kernel is the ambiguity
    sublattice of the slide-conjugation partial relations, listed by
    `pmplus_ambiguity_basis`.  Read by the test reference and by
    `verify_catalog`; the relation system pins its slide conjugations
    in closed form (`engine.build_relation_system`)."""
    solver = ColumnSolver(space.d)
    for gen in space.gens:
        if gen.kind in PMPLUS_KINDS:
            for i in range(1, space.d + 1):
                solver.add(space._bcol[gen][i - 1], tag=space.flat(gen, i))
    return solver


def partial_exact_part(space, x, vj, xi):
    """The explicitly known chain part of the relation x v_j = v_j y
    at coefficient xi: [x] (x) xi + [v_j] (x) (psi(x)^-1 - I) xi, whose
    module part is the boundary column of [x] (x) xi.  Read by the test
    reference and by `verify_catalog`."""
    return space.chain([(x.kind, x.index, xi, 1)] + [
        (vj.kind, vj.index, r + 1, c)
        for r, c in space._bcol[x][xi - 1].items()])


def partial_target_boundary(space, x, vj, xi):
    """Boundary prescribed for the unknown chain of x v_j = v_j y at
    coefficient xi: (psi(y)^-1 - I) psi(v_j)^-1 xi, with
    psi(y) = psi(v_j)^-1 psi(x) psi(v_j).

    Since psi(y)^-1 = psi(v_j)^-1 psi(x)^-1 psi(v_j), this equals
    psi(v_j)^-1 b for the boundary column b = (psi(x)^-1 - I) xi of
    [x] (x) xi, computed as b + (psi(v_j)^-1 - I) b from the boundary
    columns of v_j.  Read by the test reference and by `verify_catalog`.
    """
    col = space._bcol[x][xi - 1]
    vcols = space._bcol[vj]
    out = dict(col)
    for i, v in col.items():
        vec_axpy(out, vcols[i], v)
    return out


class CatalogReport:
    def __init__(self):
        self.checked = 0
        self.failures = []

    @property
    def ok(self):
        return not self.failures


def verify_catalog(space, catalog):
    """Necessary-condition checks for every catalog entry.

    Word relations must hold in the representation; class relations (and
    the exact parts of partials) must be cycles; the unknown part of
    every partial must admit an integer solution in its stated support.
    """
    report = CatalogReport()
    pm_solver = None
    for entry in catalog:
        report.checked += 1
        if entry.kind == "word":
            if evaluate_word(space.rep, entry.lhs) != evaluate_word(space.rep, entry.rhs):
                report.failures.append(
                    "%s: sides act differently on homology" % entry.rid
                )
        elif entry.kind == "class" or entry.ambiguity == "k1":
            if boundary1(space, entry.vector):
                report.failures.append("%s: class is not a cycle" % entry.rid)
        else:
            if pm_solver is None:
                pm_solver = pmplus_boundary_solver(space)
            x, vj = entry.conjugation
            for xi in range(1, space.d + 1):
                target = partial_target_boundary(space, x, vj, xi)
                exact = partial_exact_part(space, x, vj, xi)
                if boundary1(space, exact) != target:
                    report.failures.append(
                        "%s: exact part boundary mismatch at xi_%d" % (entry.rid, xi)
                    )
                    continue
                try:
                    pm_solver.solve(target)
                except NoIntegerSolution:
                    report.failures.append(
                        "%s: unknown part unsolvable at xi_%d" % (entry.rid, xi)
                    )
    return report


def parse_relations(text):
    """Extra word relations from plain text: one `lhs = rhs` per line,
    words as space-separated letters like `a1 a2 u1^-1`, `#` comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected `lhs = rhs`" % lineno)
        lhs, rhs = line.split("=", 1)
        out.append(
            RelationEntry(
                "X%d" % lineno, "word", lhs=Word.parse(lhs), rhs=Word.parse(rhs)
            )
        )
    return out
