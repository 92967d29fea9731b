"""Helpers used only by the tests, most of them as references.

A dense matrix here is a list of rows, each a list of ints.
"""

from itertools import combinations
from math import gcd

from mcgtwist.catalog import (
    partial_exact_part,
    partial_target_boundary,
    pmplus_boundary_solver,
)
from mcgtwist.certify import odd_support, parity_on
from mcgtwist.chains import _vtilde
from mcgtwist.engine import PartialRow
from mcgtwist.errors import UnknownDerived, UnknownLetter
from mcgtwist.intlin import Echelon, vec_axpy
from mcgtwist.surface import Gen, Word


def display(word):
    """A word as its letters, like "a1 a2 u1^-1"."""
    return " ".join(
        g.name + ("^-1" if e < 0 else "") for g, e in word
    ) or "(empty)"


def reduced(word):
    """Free reduction: cancel adjacent x x^-1 pairs."""
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return Word(out)


def derived_word(gen, spec):
    """The one-level word of a derived letter, a composite mapping class
    used in relations: u_i for 2 <= i <= g-1 (a higher crosscap
    transposition, a_{i-1} a_i u_{i-1}^-1 a_i^-1 a_{i-1}^-1), e_0 (which
    is a_1) or e_{s+n} (the twist about the curve enclosing all
    crosscaps, W a_1^-1 W^-1 with the conjugator W = a_2..a_{g-1}
    u_{g-1}..u_2).  Another u_i with i >= 2 raises UnknownDerived, and
    any other letter UnknownLetter, with the messages of
    `surface.derived_rows`, whose closed forms are checked against these
    words."""
    g, (kind, i) = spec.g, gen
    if kind == "e" and i == 0:
        return Word.of(Gen("a", 1))
    if kind == "e" and i == spec.s + spec.n:
        w = Word.of(*[Gen("a", j) for j in range(2, g)],
                    *[Gen("u", j) for j in range(g - 1, 1, -1)])
        return w * Word.of((Gen("a", 1), -1)) * w.inverse()
    if kind == "u" and 2 <= i <= g - 1:
        ai, aj = Gen("a", i - 1), Gen("a", i)
        return Word.of(ai, aj, (Gen("u", i - 1), -1), (aj, -1), (ai, -1))
    if kind == "u" and i >= 2:
        raise UnknownDerived("no derived word %r for this surface" % gen.name)
    raise UnknownLetter("no matrix for generator %s" % gen.name)


def derived_letters(spec):
    """Every derived letter of the spec: u_2..u_{g-1}, e_0 and e_{s+n}."""
    return ([Gen("u", i) for i in range(2, spec.g)]
            + [Gen("e", 0), Gen("e", spec.s + spec.n)])


def walk_fox(space, word):
    """Reference for the closed forms of the derived letters: the word
    expanded to the alphabet (`expand_word`) and walked letter by
    letter, as (C, B, Q).  C[k] is the chain C(w) e_k, each letter x at
    prefix p adding [x] (x) psi(p)^-1 e_k (less [x] (x) psi(p x^-1)^-1
    e_k for x^-1); Q = psi(w)^-1, as sparse rows; and B[k] = B_w e_k,
    column k of Q - I."""
    rep, d = space.rep, space.d
    chains = [{} for _ in range(d)]

    def contribute(gen, sign, q):
        for r, row in enumerate(q):
            for t, v in row.items():
                vec_axpy(chains[t], {space.flat(gen, r + 1): 1}, sign * v)

    q = [{r: 1} for r in range(d)]
    for gen, e in expand_word(word, space.spec):
        if e > 0:
            contribute(gen, 1, q)
            q = rep.apply_letter(q, gen, -1)
        else:
            q = rep.apply_letter(q, gen, 1)
            contribute(gen, -1, q)
    bcols = [{} for _ in range(d)]
    for r, row in enumerate(q):
        for c, v in row.items():
            if v - (r == c):
                bcols[c][r] = v - (r == c)
        if r not in row:
            bcols[r][r] = -1
    return chains, bcols, q


def expand_word(word, spec):
    """Reference for the derived letters (u_i with i >= 2, e_0, e_{s+n}):
    each replaced by its defining word (`derived_word`), again and again
    until only alphabet letters remain, then freely reduced."""
    alphabet = spec.generators()
    out = []
    for gen, e in word:
        if gen in alphabet:
            out.append((gen, e))
        else:
            repl = expand_word(derived_word(gen, spec), spec)
            out.extend(repl if e > 0 else repl.inverse())
    return reduced(out)


def functional_value(space, functional, chain):
    """Value of the functional on a chain, in Z_2: the term of
    [x] (x) xi_i is coef * alpha(x) * beta(i), which is odd exactly when
    coef is odd and the class lies in the odd support."""
    return parity_on(odd_support(space, functional), chain)


def boundary_reference(space, chain):
    """Reference for `chains.boundary1`: each class [x] (x) xi_i of the
    chain, looked up by its generator, adds coef times the boundary
    column of [x] (x) xi_i."""
    out = {}
    for flat, coef in chain.items():
        gen, i = space.unflat(flat)
        vec_axpy(out, space._bcol[gen][i - 1], coef)
    return out


def exact_echelon(system):
    """The lattice spanned by the exact chains of a `RelationSystem`, in
    all dim chain coordinates, its rows entered shortest first."""
    return Echelon(sorted((vec for _, vec in system.exact), key=len))


def extended(echelon, chains):
    """A copy of the `Echelon` with the chains inserted."""
    out = Echelon()
    out.pivots = {j: dict(row) for j, row in echelon.pivots.items()}
    for c in chains:
        out.insert(dict(c))
    return out


def pmplus_kernel_reference(space):
    """Reference for `catalog.pmplus_ambiguity_basis`: the pm+ ambiguity
    lattice computed as the kernel of `pmplus_boundary_solver`."""
    return pmplus_boundary_solver(space).kernel_basis()


def k1_single_classes_reference(space):
    """The k1 ambiguity lattice itself, of which `catalog.k1_ambiguity_basis`
    gives the classes modulo the exact lattice: the single-class cycles
    a_{j,i} with i not in {j, j+1} and i <= g."""
    g = space.spec.g
    return [space.chain([("a", j, i, 1)]) for j in range(1, g)
            for i in list(range(1, j)) + list(range(j + 2, g + 1))]


def closed_form_slide_chain(space, x, vj, xi):
    """The closed form of the pinned chain of x v_j = v_j y at
    coefficient xi: sum_r w_r v~(j, r) for w = B_x xi, each v~(j, r)
    taken from `chains._vtilde`."""
    out = {}
    for r, c in space._bcol[x][xi - 1].items():
        vec_axpy(out, _vtilde(space, vj.index, r + 1), c)
    return out


def solver_instances(system):
    """Reference for `RelationSystem.instances`, the general way: each
    slide conjugation x v_j = v_j y pinned at every coefficient xi that x
    moves, as its exact part (`partial_exact_part`) less the particular
    solution `pmplus_boundary_solver` gives for the boundary of its
    unknown part (`partial_target_boundary`); the system's k1 instances
    as they are; all in catalog order."""
    space = system.space
    solver = pmplus_boundary_solver(space)
    k1 = {p.rid: p for p in system.instances if p.ambiguity == "k1"}
    out = []
    for entry in system.catalog:
        if entry.kind != "partial":
            continue
        if entry.ambiguity == "k1":
            out.append(k1[entry.rid])
            continue
        x, vj = entry.conjugation
        for xi in range(1, space.d + 1):
            if space._bcol[x][xi - 1]:
                pinned = partial_exact_part(space, x, vj, xi)
                vec_axpy(pinned, solver.solve(
                    partial_target_boundary(space, x, vj, xi)), -1)
                out.append(PartialRow("%s:xi%d" % (entry.rid, xi), pinned,
                                      "pm+"))
    return out


def kept_instances_reference(system, ambiguity_chains=None):
    """Reference for `RelationSystem.partials`: the filter in all dim
    chain coordinates.  Per ambiguity key, a copy of the exact echelon
    is extended by the key's ambiguity chains (the system's, unless
    `ambiguity_chains` gives others), and an instance is kept, and
    inserted, when its pinned chain escapes that lattice."""
    if ambiguity_chains is None:
        ambiguity_chains = system.ambiguity_chains
    filters = {}
    kept = []
    exact = exact_echelon(system)
    for p in system.instances:
        if p.ambiguity not in filters:
            filters[p.ambiguity] = extended(exact,
                                            ambiguity_chains[p.ambiguity])
        filt = filters[p.ambiguity]
        if not filt.contains(p.base):
            filt.insert(dict(p.base))
            kept.append(p)
    return kept


def same_lattice(a, b):
    """True when the `Echelon`s a and b span the same lattice: the same
    rank, the same pivot columns and each basis inside the other."""
    if a.rank != b.rank or set(a.pivots) != set(b.pivots):
        return False
    return (all(b.contains(row) for row in a.pivots.values())
            and all(a.contains(row) for row in b.pivots.values()))


def dense(rep, gen, sign=1):
    """psi(gen)^sign as a dense matrix, from the moved rows of `rep`."""
    out = identity(rep.d)
    for r, entries in rep.moved[gen, sign]:
        out[r] = [0] * rep.d
        for c, v in entries:
            out[r][c] = v
    return out


def identity(n):
    """The n x n identity matrix."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    """The dense integer product a @ b."""
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(m, v):
    """The integer vector m @ v, for a list v."""
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def column(m, j):
    """Column j of a matrix, as a list."""
    return [row[j] for row in m]


def to_dense(rows, d):
    """A list of sparse rows (dicts column -> value) as a dense matrix."""
    return [[row.get(c, 0) for c in range(d)] for row in rows]


def alpha(functional, gen):
    """The functional's value alpha(gen) on a generator, 0 off its map."""
    return functional.alpha_map.get(gen, 0)


def beta(functional, i):
    """The functional's value beta(i) on the basis vector xi_i: 1 exactly
    for i <= gamma_count."""
    return 1 if i <= functional.gamma_count else 0


def dense_beta_failures(space, functional):
    """Reference for the beta check of `certify.descent_check`: beta is
    invariant under psi(x) when every column of psi(x) has, over its
    first gamma_count rows, the parity of beta at that column.  One
    message per generator, at the first column that fails."""
    failures = []
    for gen in space.gens:
        mat = dense(space.rep, gen)
        for c in range(space.d):
            col_parity = sum(
                mat[r][c] for r in range(functional.gamma_count)
            ) & 1
            if col_parity != beta(functional, c + 1):
                failures.append(
                    "%s: beta not invariant under psi(%s) at xi_%d"
                    % (functional.name, gen.name, c + 1)
                )
                break
    return failures


def functional_value_reference(space, functional, chain):
    """Reference for `functional_value`: walk the chain and add
    coef * alpha(x) * beta(i) for each of its classes [x] (x) xi_i."""
    total = 0
    for flat, coef in chain.items():
        gen, i = space.unflat(flat)
        total += coef * alpha(functional, gen) * beta(functional, i)
    return total & 1


def lattice_coords(space, lattice, chain):
    """Coordinates of a cycle in the echelon basis of `lattice` (from
    `chains.cycle_lattice`), basis vector t being the row with the t-th
    smallest pivot column.  The pivot rows are subtracted in ascending
    pivot order; a chain outside the lattice fails an assertion."""
    message = "not in the cycle lattice: %s" % space.format_chain(chain)
    rem = dict(chain)
    coords = {}
    for t, j in enumerate(sorted(lattice.pivots)):
        row = lattice.pivots[j]
        q, r = divmod(rem.get(j, 0), row[j])
        assert not r, message
        if q:
            coords[t] = q
            for c, v in row.items():
                rem[c] = rem.get(c, 0) - q * v
    assert not any(rem.values()), message
    return coords


def snf_reference(rows):
    """Invariant factors of the lattice spanned by sparse `rows`, from
    determinantal divisors: d_k = D_k / D_{k-1}, where D_k is the gcd of
    the k x k minors, up to the rank.  Exponential; tiny matrices only."""
    cols = sorted({c for row in rows for c in row})
    mat = to_dense([{cols.index(c): v for c, v in row.items()} for row in rows],
                   len(cols))
    factors = []
    previous = 1
    for k in range(1, min(len(mat), len(cols)) + 1):
        divisor = 0
        for rs in combinations(range(len(mat)), k):
            for cs in combinations(range(len(cols)), k):
                divisor = gcd(divisor, determinant(
                    [[mat[i][j] for j in cs] for i in rs]))
        if not divisor:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def determinant(m):
    """The determinant of a square integer matrix, by Bareiss elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, previous = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[n - 1][n - 1]
