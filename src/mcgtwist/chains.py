"""Chain level: classes [x] (x) xi_i, the boundary map, relation
rewriting and the cycle lattice.

A chain is a sparse integer vector over the classes [x] (x) xi_i, where
x runs over the generator alphabet and xi_1..xi_d over the module basis:
the `intlin` vector, a dict from flat coordinate to nonzero int, updated
by `vec_axpy`.  The class [x] (x) xi_i is written x_{j,i} (so a_{1,3} is
[a_1] (x) gamma_3).  Coordinates are flattened as position(x) * d +
(i - 1).
"""

from .intlin import ColumnSolver, Echelon, vec_axpy
from .surface import Gen, build_representation, derivation


class ChainSpace:
    """The free module on the classes [x] (x) xi_i for one surface spec."""

    def __init__(self, spec, rep=None):
        self.spec = spec
        self.rep = rep if rep is not None else build_representation(spec)
        self.d = spec.d
        self.gens = spec.generators()
        self.gpos = {gen: p for p, gen in enumerate(self.gens)}
        self.dim = len(self.gens) * self.d
        # Boundary columns: the image of [x] (x) xi_i is column i of
        # psi(x)^-1 - I, which is zero outside the rows where psi(x)^-1
        # differs from the identity.  `_bflat` holds them by flat
        # coordinate and `_bcol` by generator, as the same dicts.
        self._bcol = {}
        self._bflat = []
        for gen in self.gens:
            cols = [{} for _ in range(self.d)]
            for r, entries in self.rep.moved[gen, -1]:
                row = dict(entries)
                row[r] = row.get(r, 0) - 1
                for c, v in row.items():
                    if v:
                        cols[c][r] = v
            self._bcol[gen] = cols
            self._bflat.extend(cols)
        self._fox = {}  # letter -> (C, B), see `_fox_columns`

    def flat(self, gen, i):
        """Flat coordinate of [gen] (x) xi_i (i is 1-based)."""
        return self.gpos[gen] * self.d + i - 1

    def unflat(self, flat):
        gen = self.gens[flat // self.d]
        return gen, flat % self.d + 1

    def class_name(self, flat):
        gen, i = self.unflat(flat)
        return "%s_{%d,%d}" % (gen.kind, gen.index, i)

    def chain(self, terms):
        """The chain summing terms (kind, generator index, basis index,
        coef); a class whose terms cancel has no key."""
        out = {}
        gpos, d = self.gpos, self.d
        for kind, j, i, coef in terms:
            # A Gen is a tuple, so (kind, j) finds its position.
            vec_axpy(out, {gpos[kind, j] * d + i - 1: 1}, coef)
        return out

    def format_chain(self, chain):
        parts = []
        for flat in sorted(chain):
            c = chain[flat]
            name = self.class_name(flat)
            if c == 1:
                parts.append("+" + name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%+d*%s" % (c, name))
        return " ".join(parts) or "0"


def boundary1(space, chain):
    """The boundary of a chain, as a sparse module vector (0-based rows):
    the sum of coef times the boundary column of each of its classes."""
    out = {}
    cols = space._bflat
    for flat, coef in chain.items():
        for r, v in cols[flat].items():
            w = out.get(r, 0) + coef * v
            if w:
                out[r] = w
            elif r in out:
                del out[r]
    return out


def expected_boundary(spec, gen, i):
    """Closed-form boundary of the class [gen] (x) xi_i, derived from the
    generator matrices by hand; used to cross-check the built
    representation (0-based rows)."""
    g, s, n = spec.g, spec.s, spec.n
    kind, j = gen
    d = spec.d

    def vec(pairs):
        return {r: c for r, c in pairs if c}

    if kind == "a":
        if i == j:
            return vec([(j - 1, 1), (j, 1)])
        if i == j + 1:
            return vec([(j - 1, -1), (j, -1)])
        return {}
    if kind == "u":
        if i == 1:
            return vec([(0, -1), (1, 1)])
        if i == 2:
            return vec([(0, 1), (1, -1)])
        return {}
    if kind == "b":
        if i in (1, 3):
            return {r: 1 for r in range(4)}
        if i in (2, 4):
            return {r: -1 for r in range(4)}
        return {}
    if kind == "e":
        if i == 1:
            return {0: 1, 1: 1, **{g + t - 1: 1 for t in range(1, j + 1)}}
        if i == 2:
            return {0: -1, 1: -1, **{g + t - 1: -1 for t in range(1, j + 1)}}
        return {}
    if kind == "d":
        return {}
    if kind == "s":
        if j < n - 1:
            p = g + s + j - 1
            if i == g + s + j:
                return {p: -1, p + 1: 1}
            if i == g + s + j + 1:
                return {p: 1, p + 1: -1}
            return {}
        if i == g + s + n - 1:
            out = {r: -2 for r in range(g)}
            out.update({r: -1 for r in range(g, d)})
            out[d - 1] = -2
            return out
        return {}
    if kind == "v":
        if j < n:
            if i == g:
                return {g + s + j - 1: 1}
            if i == g + s + j:
                return {g + s + j - 1: -2}
            return {}
        if i == g:
            out = {r: -2 for r in range(g)}
            out.update({r: -1 for r in range(g, d)})
            return out
        return {}
    raise ValueError("unknown generator kind %r" % kind)


def boundary_witnesses(space):
    """The flat coordinates J of [a_j] (x) xi_j (j < g), [u_1] (x) xi_1
    and [e_j] (x) xi_1 (j < s + n), d of them, which every spec has.
    Their boundary columns are a Z-basis of the boundary image, so
    Z^dim = Z (+) Z^J, Z the cycle lattice.

    Write bd for the boundary column and gamma_1..gamma_g,
    delta_1..delta_{s+n-1} for the module basis (`expected_boundary`,
    which `verify` checks against the representation).

    - Every boundary column has an even gamma-sum, so the image lies in
      D_g (+) Z^(s+n-1), D_g the vectors of Z^g with even sum.
    - The columns of J are gamma_j + gamma_{j+1}, gamma_2 - gamma_1 and
      gamma_1 + gamma_2 + delta_1 + ... + delta_j, so their span holds
      delta_1 = bd([e_1] (x) xi_1) - bd([a_1] (x) xi_1) and delta_j =
      bd([e_j] (x) xi_1) - bd([e_{j-1}] (x) xi_1).
    - gamma_j + gamma_{j+1} and gamma_2 - gamma_1 generate D_g: they
      give 2 gamma_1, and clearing gamma_{j+1} in x in D_g by gamma_j +
      gamma_{j+1}, for j = g - 1 down to 1, leaves c gamma_1 with c
      even, since each step keeps the parity of the sum.

    So the d columns span D_g (+) Z^(s+n-1), which holds the image they
    lie in: they are a basis of it.  Then every chain x is (x - y) + y
    with y in Z^J of the same boundary, and a cycle in Z^J is 0.
    """
    spec = space.spec
    out = [space.flat(Gen("a", j), j) for j in range(1, spec.g)]
    out.append(space.flat(Gen("u", 1), 1))
    out += [space.flat(Gen("e", j), 1) for j in range(1, spec.s + spec.n)]
    return out


def _walk(space, word, side, out):
    """Add side times the contribution of `word` to the chains `out`,
    one per coefficient (see `rewrite_relation_all`); a derived letter
    adds its chains C(x) e_r (`_fox_columns`)."""
    rep = space.rep

    def contribute(gen, sign, q):
        if gen in space._bcol:
            base = space.flat(gen, 1)
            for r, row in enumerate(q):
                flat = base + r
                for t, v in row.items():
                    col = out[t]
                    col[flat] = col.get(flat, 0) + sign * v
        else:
            cols = _fox_columns(space, gen)[0]
            for r, row in enumerate(q):
                for t, v in row.items():
                    vec_axpy(out[t], cols[r], sign * v)

    q = [{r: 1} for r in range(space.d)]
    for gen, e in word:
        if e > 0:
            # The step first: it raises UnknownLetter off the alphabet.
            step = rep.apply_letter(q, gen, -1)
            contribute(gen, side, q)
            q = step
        else:
            q = rep.apply_letter(q, gen, 1)
            contribute(gen, -side, q)


def _fox_columns(space, gen):
    """(C, B) of a letter, built once per space: C[k] = C(gen) e_k and
    B[k] = B_gen e_k.  A derived letter walks its one-level word once,
    in the order of `derivation`; the boundary of C(w) e_k is B_w e_k,
    by the Fox rule.  `build_relation_system` empties the memo once the
    catalog is rewritten, and a later call builds what it needs again."""
    if gen in space._bcol and gen not in space._fox:
        base = space.flat(gen, 1)
        space._fox[gen] = ([{base + k: 1} for k in range(space.d)],
                           space._bcol[gen])
    elif gen not in space._fox:
        for x, word in derivation(gen, space.spec):
            if x not in space._fox:
                chains = [{} for _ in range(space.d)]
                _walk(space, word, 1, chains)
                chains = [{f: v for f, v in c.items() if v} for c in chains]
                space._fox[x] = chains, [boundary1(space, c) for c in chains]
    return space._fox[gen]


def _closed_form_pair(lhs, rhs):
    """(x, y) when lhs = rhs reads x y = y x or x y x = y x y, else None."""
    m = len(lhs)
    if m not in (2, 3):
        return None
    x, y = lhs[0][0], lhs[1][0]
    if (lhs, rhs) == (((x, 1), (y, 1), (x, 1))[:m],
                      ((y, 1), (x, 1), (y, 1))[:m]):
        return x, y
    return None


def rewrite_relation_all(space, lhs, rhs):
    """Rewrite a relation over every basis coefficient at once.

    Returns a list of d chains, entry i-1 being the homology class of
    the relation lhs = rhs with coefficient xi_i.  Each side
    w = l_1..l_m contributes, for the letter l_t at prefix
    p = l_1..l_{t-1}: +[x] (x) psi(p)^-1 xi if l_t = x, and
    -[x] (x) psi(p l_t)^-1 xi if l_t = x^-1; the result is
    contribution(lhs) - contribution(rhs).

    With C(w) the map xi -> contribution(w) at xi (C(x) xi_r is
    [x] (x) xi_r) and B_x = psi(x)^-1 - I (the boundary columns of x),
    this is the Fox rule C(w1 w2) = C(w1) + C(w2) psi(w1)^-1.  For a
    derived letter x, [x] (x) v reads C(x) v, C(x) being that of its
    one-level word (`_fox_columns`): by the rule this is the word's
    contribution at p, and a free cancellation x x^-1 contributes 0, so
    every chain is that of the relation expanded to the alphabet, entry
    for entry.  The rule alone gives chain k in closed form for the
    shapes of most of the catalog, for any letters x, y:

    - x y = y x: C(xy) - C(yx) = C(y) B_x - C(x) B_y, at e_k;
    - x y x = y x y: psi(xy)^-1 = I + B_x + B_y + B_y B_x, so
      C(xyx) = C(x)(2I + B_x + B_y + B_y B_x) + C(y)(I + B_x); less the
      same with x, y swapped: C(x)(I + B_x + B_y B_x) - C(y)(I + B_y +
      B_x B_y), at e_k.

    Neither form assumes the relation, so a false one still gives a
    non-cycle.  Most coefficients are moved by neither letter: when
    B_x e_k = B_y e_k = 0, the commutation's chain k is 0, and since
    e_k + B_x e_k + B_y B_x e_k = e_k (and likewise with x, y swapped)
    the braid's chain k is C(x) e_k - C(y) e_k.  Those chains are
    built as such.  Any other relation is walked as written, one pass
    over the letters shared by all coefficients: the running matrix
    Q = psi(prefix)^-1 is held as sparse rows and updated by one letter
    step (`Representation.apply_letter`) per letter, and a contribution
    adds the nonzeros of Q's rows, row r of Q feeding the class
    [x] (x) xi_{r+1} of every coefficient its columns name.
    """
    pair = _closed_form_pair(lhs, rhs)
    if pair is None:
        out = [{} for _ in range(space.d)]
        _walk(space, lhs, 1, out)
        _walk(space, rhs, -1, out)
        return [{k: v for k, v in col.items() if v} for col in out]

    cx, bx = _fox_columns(space, pair[0])
    cy, by = _fox_columns(space, pair[1])

    def braid_vector(k, b1, b2):  # e_k + B_1 e_k + B_2 B_1 e_k
        vec = {k: 1}
        vec_axpy(vec, b1[k], 1)
        for r, c in b1[k].items():
            vec_axpy(vec, b2[r], c)
        return vec

    out = []
    for k in range(space.d):
        chain = {}
        if bx[k] or by[k]:
            if len(lhs) == 2:
                terms = ((cy, bx[k], 1), (cx, by[k], -1))
            else:
                terms = ((cx, braid_vector(k, bx, by), 1),
                         (cy, braid_vector(k, by, bx), -1))
            for cols, vec, sign in terms:
                for r, c in vec.items():
                    vec_axpy(chain, cols[r], sign * c)
        elif len(lhs) == 3:  # unmoved by both letters: see above
            chain.update(cx[k])
            vec_axpy(chain, cy[k], -1)
        out.append(chain)
    return out


def cycle_lattice(space):
    """Kernel of the boundary map on the chain space: the lattice of
    chains with zero boundary, as an `Echelon`."""
    solver = ColumnSolver(space.d)
    for gen in space.gens:
        for i in range(1, space.d + 1):
            solver.add(space._bcol[gen][i - 1], tag=space.flat(gen, i))
    return Echelon(solver.kernel_basis())


def _gamma_terms(g):
    """The terms of the unique combination of a- and u-classes on the
    diagonal whose boundary is gamma_1 + gamma_2 + 2*gamma_3 + ... +
    2*gamma_g."""
    if g % 2:
        return [("u", 1, 1, -1)] + [("a", j, j, 2) for j in range(2, g, 2)]
    return [("a", 1, 1, 1)] + [("a", j, j, 2) for j in range(3, g, 2)]


def _e_unit(j, coef):
    """The term coef * e_{j,1}, with e_0 standing for a_1."""
    if j == 0:
        return ("a", 1, 1, coef)
    return ("e", j, 1, coef)


def _vtilde(space, j, i):
    """The cycle-corrected puncture-slide class for v_j and xi_i."""
    spec = space.spec
    g, s, n = spec.g, spec.s, spec.n
    terms = [("v", j, i, 1)]
    if j < n:
        if i == g:
            terms += [_e_unit(s + j - 1, 1), _e_unit(s + j, -1)]
        elif i == g + s + j:
            terms += [_e_unit(s + j - 1, -2), _e_unit(s + j, 2)]
    elif i == g:
        terms += [_e_unit(s + n - 1, 1)] + _gamma_terms(g)
    return space.chain(terms)


def kernel_generator_list(space):
    """The explicit labeled generating family of the cycle lattice for
    the spec's flavor, as (label, chain) pairs."""
    spec = space.spec
    g, s, n, k, d = spec.g, spec.s, spec.n, spec.k, spec.d
    out = []
    for j in range(1, g):
        for i in range(1, d + 1):
            if i not in (j, j + 1):
                out.append(("K1", space.chain([("a", j, i, 1)])))
        out.append(("K2", space.chain([("a", j, j, 1), ("a", j, j + 1, 1)])))
    for i in range(3, d + 1):
        out.append(("K3", space.chain([("u", 1, i, 1)])))
    out.append(("K4", space.chain([("u", 1, 1, 1), ("u", 1, 2, 1)])))
    for j in range(1, s + n):
        for i in range(3, d + 1):
            out.append(("K5", space.chain([("e", j, i, 1)])))
        out.append(("K6", space.chain([("e", j, 1, 1), ("e", j, 2, 1)])))
    if g in (3, 4):
        for j in range(1, s):
            for i in range(1, d + 1):
                out.append(("K7", space.chain([("d", j, i, 1)])))
    if g >= 4:
        for i in range(5, d + 1):
            out.append(("K8", space.chain([("b", 1, i, 1)])))
        for i in (2, 4):
            out.append(("K9", space.chain([("b", 1, i, 1), ("b", 1, 1, 1)])))
        out.append(("K10", space.chain([("b", 1, 3, 1), ("b", 1, 1, -1)])))
        out.append(
            ("K11", space.chain([("b", 1, 1, 1), ("a", 1, 1, -1), ("a", 3, 3, -1)]))
        )
    vrange = range(k + 1, n + 1) if spec.flavor == "pmk" else (
        (n,) if spec.flavor == "m" else ()
    )
    for j in vrange:
        for i in range(1, d + 1):
            out.append(("K12", _vtilde(space, j, i)))
    if spec.flavor == "m":
        for j in range(1, n):
            for i in range(1, d + 1):
                if i not in (g + s + j, g + s + j + 1):
                    out.append(("K13", space.chain([("s", j, i, 1)])))
            if j < n - 1:
                out.append(
                    (
                        "K14",
                        space.chain(
                            [("s", j, g + s + j, 1), ("s", j, g + s + j + 1, 1)]
                        ),
                    )
                )
                out.append(
                    (
                        "K15",
                        space.chain(
                            [
                                ("s", j, g + s + j, 1),
                                _e_unit(s + j - 1, -1),
                                _e_unit(s + j, 2),
                                _e_unit(s + j + 1, -1),
                            ]
                        ),
                    )
                )
        out.append(
            (
                "K16",
                space.chain(
                    [
                        ("s", n - 1, g + s + n - 1, 1),
                        _e_unit(s + n - 1, 2),
                        _e_unit(s + n - 2, -1),
                    ]
                    + _gamma_terms(g)
                ),
            )
        )
    return out
