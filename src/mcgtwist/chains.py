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
from .surface import Gen, build_representation, derived_rows


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
        # psi(x)^-1 - I (`_boundary_columns`).  `_bflat` holds them by
        # flat coordinate and `_bcol` by generator, as the same dicts.
        self._bcol = {}
        self._bflat = []
        for gen in self.gens:
            cols = _boundary_columns(self.d, self.rep.moved[gen, -1])
            self._bcol[gen] = cols
            self._bflat.extend(cols)

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
            flat = gpos[kind, j] * d + i - 1
            w = out.get(flat, 0) + coef
            if w:
                out[flat] = w
            elif flat in out:
                del out[flat]
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


def _boundary_columns(d, inverse_rows):
    """The d columns of psi(x)^-1 - I, given the moved rows of psi(x)^-1:
    zero outside the rows where psi(x)^-1 differs from the identity."""
    cols = [{} for _ in range(d)]
    for r, entries in inverse_rows:
        row = dict(entries)
        row[r] = row.get(r, 0) - 1
        for c, v in row.items():
            if v:
                cols[c][r] = v
    return cols


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
    one per coefficient (see `rewrite_relation_all`).  A letter adds its
    chains C(x) e_r (`_fox_columns`)."""
    rep = space.rep

    def contribute(gen, sign, q):
        cols = _fox_columns(space, gen)[0]
        if cols.__class__ is int:  # C(x) e_r = [x] (x) xi_{r+1}
            for r, row in enumerate(q):
                flat = cols + r
                for t, v in row.items():
                    col = out[t]
                    col[flat] = col.get(flat, 0) + sign * v
        else:
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
    """(C, B) of a letter x, entry k of each for the coefficient
    xi_{k+1}: B[k] is that column of B_x = psi(x)^-1 - I, and C[k] the
    chain C(x) xi_{k+1}, in closed form (`_fox_u`, `_fox_outer`).  For
    an alphabet letter, whose C(x) xi_{k+1} is the single class
    [x] (x) xi_{k+1}, C is instead the flat coordinate of [x] (x) xi_1,
    and for e_0 = a_1 that of [a_1] (x) xi_1.  A letter off the alphabet
    that is not derived raises as `surface.derived_rows` does."""
    if gen in space._bcol:
        return space.flat(gen, 1), space._bcol[gen]
    inverse = derived_rows(gen, space.spec, space.rep.moved)[1]
    bcols = _boundary_columns(space.d, inverse)
    if gen.kind == "u":
        return _fox_u(space, gen.index), bcols
    if gen.index == 0:
        return space.flat(Gen("a", 1), 1), bcols
    return _fox_outer(space), bcols


def _fox_u(space, i):
    """The chains C(u_i) e_k, k = 1..d, for 2 <= i <= g-1, in closed
    form (u_{j,k} = [u_j] (x) xi_k, likewise a_{j,k}):

    - k > i+1: (-1)^(i+1) u_{1,k};
    - k < i: (-1)^(i+k) (2 u_{1,1} + 2 u_{1,2}) + (-1)^(i+1) u_{1,k+2};
    - k = i: Y_i = sum_{t=1..i} (-1)^(i-t+1) (w_t a_{t,t+1} +
      [t >= 2] (a_{t,t-1} + a_{t-1,t+1})) + u_{1,2} for i even, u_{1,1}
      for i odd, with w_t = 1 at t = 1 and t = i and 2 between;
    - k = i+1: u_{1,1} + u_{1,2} - Y_i.

    Proof, by induction on i from C(u_1) e_k = u_{1,k}.  For a
    conjugate, the Fox rule C(w1 w2) = C(w1) + C(w2) psi(w1)^-1 and
    C(m^-1) = -C(m) psi(m) give C(m y m^-1) = -C(m) B_{m y m^-1} + C(y)
    psi(m)^-1.  Take m = a_{i-1} a_i, M = psi(m), y = u_{i-1}^-1, P =
    psi(u_{i-1}) (so C(y) = -C(u_{i-1}) P), and write A_j = psi(a_j),
    gamma_k = e_k.  Then C(u_i) e_k = -C(m) B_{u_i} e_k - C(u_{i-1})
    P M^-1 e_k, with C(m) v = [a_{i-1}] (x) v + [a_i] (x) A_{i-1}^-1 v.
    As psi(u_i) swaps gamma_i and gamma_{i+1} (`surface.derived_rows`),
    B_{u_i} e_k is gamma_{i+1} - gamma_i at k = i, its negative at
    k = i+1 and 0 elsewhere; and A_j^-1 takes gamma_j to 2 gamma_j +
    gamma_{j+1} and gamma_{j+1} to -gamma_j.

    - k outside {i-1, i, i+1}: P M^-1 fixes e_k, so C(u_i) e_k =
      -C(u_{i-1}) e_k.  This gives the case k > i+1, and k < i-1 from
      the case k < i of u_{i-1}.
    - k = i and i+1 together: M^-1 (gamma_i + gamma_{i+1}) =
      -(gamma_{i-1} + gamma_i), which P fixes, and B_{u_i} kills
      gamma_i + gamma_{i+1}, so C(u_i) (e_i + e_{i+1}) = C(u_{i-1})
      (e_{i-1} + e_i) = ... = u_{1,1} + u_{1,2} (L).  This gives k = i+1
      from k = i.
    - k = i-1: P M^-1 gamma_{i-1} = 2 gamma_{i-1} + 2 gamma_i +
      gamma_{i+1}, so by (L) and the case k > i of u_{i-1}, C(u_i)
      e_{i-1} = -2 u_{1,1} - 2 u_{1,2} + (-1)^(i+1) u_{1,i+1}.
    - k = i: P M^-1 gamma_i = -gamma_i and A_{i-1}^-1 (gamma_{i+1} -
      gamma_i) = gamma_{i-1} + gamma_{i+1}, so by (L), Y_i = D_i +
      u_{1,1} + u_{1,2} - Y_{i-1} with D_i = a_{i-1,i} - a_{i-1,i+1} -
      a_{i,i-1} - a_{i,i+1} and Y_1 = u_{1,1}.  Unrolled, D_t carries
      the sign (-1)^(i-t), and a_{t,t+1} (1 < t < i) is in D_t and
      D_{t+1}, hence its weight 2; the u-terms sum to u_{1,2} or u_{1,1}
      by the parity of i.
    """
    gpos, d = space.gpos, space.d
    a = {j: gpos["a", j] * d - 1 for j in range(1, i + 1)}  # a_{j,k}: a[j] + k
    u = gpos["u", 1] * d - 1  # u_{1,k}: u + k
    odd = 1 if i % 2 else -1  # (-1)^(i+1)
    out = []
    for k in range(1, i):
        both = 2 * odd if k % 2 else -2 * odd  # 2 (-1)^(i+k)
        out.append({u + 1: both, u + 2: both, u + k + 2: odd})
    y = {}
    for t in range(1, i + 1):
        sign = 1 if (i - t) % 2 else -1  # (-1)^(i-t+1)
        y[a[t] + t + 1] = sign if t in (1, i) else 2 * sign
        if t >= 2:
            y[a[t] + t - 1] = sign
            y[a[t - 1] + t + 1] = sign
    y[u + 2 - i % 2] = 1
    z = {u + 1: 1, u + 2: 1}
    vec_axpy(z, y, -1)
    out += [y, z]
    out += [{u + k: odd} for k in range(i + 2, d + 1)]
    return out


def _fox_outer(space):
    """The chains C(e_{s+n}) e_k, k = 1..d, in closed form, e_{s+n} =
    W a_1^-1 W^-1 with W = a_2..a_{g-1} u_{g-1}..u_2:

    - k = 1: a_{1,2} + C(W) c;
    - k = 2: -a_{1,1} - 2 a_{1,2} - 2 (a_{1,3} + ... + a_{1,g}) - C(W) c;
    - 3 <= k <= g: a_{1,k}; k > g: -a_{1,k};

    where c = gamma_1 + gamma_2 + 2 (gamma_3 + ... + gamma_g) and

        C(W) c = sum_{j=2..g-1} [a_j] (x) (gamma_1 + gamma_j + 2 (gamma_{j+1}
                 + ... + gamma_g))
               + sum_{j=2..g-1} ((-1)^(j+1) (2 u_{1,1} + 2 u_{1,2} + u_{1,3})
                 + u_{1,1} + u_{1,2})
               - sum_{2 <= t <= g-1, t = g-1 mod 2} (D_t + u_{1,1} + u_{1,2})
               + (g mod 2) u_{1,1},

    D_t = a_{t-1,t} - a_{t-1,t+1} - a_{t,t-1} - a_{t,t+1} (`_fox_u`).

    Proof.  As in `_fox_u`, C(e_{s+n}) = -C(W) B + C(a_1^-1) psi(W)^-1
    with C(a_1^-1) = -C(a_1) A_1, and B e_k is -c at k = 1, c at k = 2
    and 0 elsewhere (`surface.derived_rows`).  psi(W)^-1 = U_2 ..
    U_{g-1} A_{g-1}^-1 .. A_2^-1 (U_j = psi(u_j) swaps gamma_j and
    gamma_{j+1}) fixes gamma_1 and each gamma_k with k > g; it takes
    gamma_k (3 <= k <= g) to -gamma_k, A_{k-1}^-1 to -gamma_{k-1} and
    U_{k-1} back; and gamma_2 to gamma_2 + 2 (gamma_3 + ... + gamma_g),
    the A's to 2 gamma_2 + ... + 2 gamma_{g-1} + gamma_g and the U's
    then moving the lone 1 down to gamma_2.  A_1 takes gamma_1 to
    -gamma_2, gamma_2 to gamma_1 + 2 gamma_2 and fixes the rest: this
    gives the a_1-terms.

    C(W) c sums, over the letters l of W, C(l) psi(p)^-1 c with p the
    prefix before l.  psi(a_2..a_{j-1})^-1 c = gamma_1 + gamma_j +
    2 (gamma_{j+1} + ... + gamma_g), each A_j^-1 subtracting gamma_j +
    gamma_{j+1}; so u_{g-1} meets gamma_1 + gamma_g, and each U_j moves
    it on, so that u_j meets gamma_1 + gamma_{j+1}.  By `_fox_u`,
    C(u_j) (e_1 + e_{j+1}) = (-1)^(j+1) (2 u_{1,1} + 2 u_{1,2} +
    u_{1,3}) + u_{1,1} + u_{1,2} - Y_j, and since Y_j + Y_{j-1} = D_j +
    u_{1,1} + u_{1,2} and Y_1 = u_{1,1}, the sum of Y_2..Y_{g-1}, paired
    from the top, is the sum over t above less (g mod 2) u_{1,1}.
    """
    gpos, g, d = space.gpos, space.spec.g, space.d
    a = {j: gpos["a", j] * d - 1 for j in range(1, g)}  # a_{j,k}: a[j] + k
    u = gpos["u", 1] * d - 1  # u_{1,k}: u + k
    cw = {}

    def add(flat, v):
        cw[flat] = cw.get(flat, 0) + v

    for j in range(2, g):
        add(a[j] + 1, 1)
        add(a[j] + j, 1)
        for t in range(j + 1, g + 1):
            add(a[j] + t, 2)
        sign = 1 if j % 2 else -1  # (-1)^(j+1)
        add(u + 1, 2 * sign + 1)
        add(u + 2, 2 * sign + 1)
        add(u + 3, sign)
    for t in range(3 - g % 2, g, 2):  # t = g-1 mod 2
        add(a[t - 1] + t, -1)
        add(a[t - 1] + t + 1, 1)
        add(a[t] + t - 1, 1)
        add(a[t] + t + 1, 1)
        add(u + 1, -1)
        add(u + 2, -1)
    add(u + 1, g % 2)
    first = {a[1] + 2: 1}
    vec_axpy(first, cw, 1)
    second = {a[1] + t: -2 for t in range(1, g + 1)}
    second[a[1] + 1] = -1
    vec_axpy(second, cw, -1)
    return ([first, second] + [{a[1] + k: 1} for k in range(3, g + 1)]
            + [{a[1] + k: -1} for k in range(g + 1, d + 1)])


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
    one-level word, in closed form (`_fox_columns`): by the rule this is
    the word's contribution at p, and a free cancellation x x^-1
    contributes 0, so every chain is that of the relation expanded to
    the alphabet, entry for entry.  The rule alone gives chain k in
    closed form for the shapes of most of the catalog, for any letters
    x, y:

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

    def add(chain, cols, vec, sign):  # chain += sign C(letter) vec
        if cols.__class__ is int:
            for r, c in vec.items():
                flat = cols + r
                w = chain.get(flat, 0) + sign * c
                if w:
                    chain[flat] = w
                else:
                    del chain[flat]
        else:
            for r, c in vec.items():
                vec_axpy(chain, cols[r], sign * c)

    def braid_vector(k, b1, b2):  # e_k + B_1 e_k + B_2 B_1 e_k
        vec = {k: 1}
        for r, c in b1[k].items():
            vec[r] = vec.get(r, 0) + c
            for t, v in b2[r].items():
                vec[t] = vec.get(t, 0) + c * v
        return {t: v for t, v in vec.items() if v}

    single = cx.__class__ is int and cy.__class__ is int and cx != cy
    out = []
    for k in range(space.d):
        chain = {}
        if bx[k] or by[k]:
            if len(lhs) == 2:
                add(chain, cy, bx[k], 1)
                add(chain, cx, by[k], -1)
            else:
                add(chain, cx, braid_vector(k, bx, by), 1)
                add(chain, cy, braid_vector(k, by, bx), -1)
        elif len(lhs) == 3:  # unmoved by both letters: see above
            if single:
                chain = {cx + k: 1, cy + k: -1}
            else:
                add(chain, cx, {k: 1}, 1)
                add(chain, cy, {k: 1}, -1)
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


def pmplus_generators(space):
    """The members K1-K11 of `kernel_generator_list`, as (label, chain)
    pairs in its order: the cycles on the kinds a, u, e, d and b, which
    span the pm+ ambiguity lattice (`catalog.pmplus_ambiguity_basis`)."""
    spec = space.spec
    g, s, n, d = spec.g, spec.s, spec.n, spec.d
    out = []
    # The single-class members are built as such: [x] (x) xi_i is the
    # flat coordinate position(x) * d + i - 1.
    gpos = space.gpos
    for j in range(1, g):
        base = gpos["a", j] * d - 1
        for i in range(1, d + 1):
            if i not in (j, j + 1):
                out.append(("K1", {base + i: 1}))
        out.append(("K2", space.chain([("a", j, j, 1), ("a", j, j + 1, 1)])))
    base = gpos["u", 1] * d - 1
    for i in range(3, d + 1):
        out.append(("K3", {base + i: 1}))
    out.append(("K4", space.chain([("u", 1, 1, 1), ("u", 1, 2, 1)])))
    for j in range(1, s + n):
        base = gpos["e", j] * d - 1
        for i in range(3, d + 1):
            out.append(("K5", {base + i: 1}))
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
    return out


def kernel_generator_list(space):
    """The explicit labeled generating family of the cycle lattice for
    the spec's flavor, as (label, chain) pairs: K1-K11
    (`pmplus_generators`), then the members K12-K16 on the slides."""
    spec = space.spec
    g, s, n, d = spec.g, spec.s, spec.n, spec.d
    out = pmplus_generators(space)
    for j in [gen.index for gen in space.gens if gen.kind == "v"]:
        for i in range(1, d + 1):
            out.append(("K12", _vtilde(space, j, i)))
    if spec.flavor == "m":
        for j in range(1, n):
            base = space.gpos["s", j] * d - 1
            for i in range(1, d + 1):
                if i not in (g + s + j, g + s + j + 1):
                    out.append(("K13", {base + i: 1}))
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
