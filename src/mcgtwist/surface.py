"""Surfaces, generator alphabets, words and the homology representation.

A surface N with genus g, s boundary components and n punctures carries
a mapping class group in three flavors: "pm+" (punctures fixed, local
orientation preserved at every puncture), "pmk" (punctures fixed, local
orientation preserved at the first k) and "m" (punctures may be
permuted).  The group acts on H_1(N; Z), a free module of rank
d = g+s+n-1 with basis xi_1..xi_d consisting of the one-sided classes
gamma_1..gamma_g followed by the boundary/puncture classes
delta_1..delta_{s+n-1}.  Each generator's action psi(x), and its
inverse, is held only as its rows that differ from the identity
(`Representation.moved`); no dense matrix is formed.  A derived letter
(u_i for i >= 2, e_0, e_{s+n}) joins them on first use, its rows taken
in closed form (`derived_rows`), as a letter like any other.
"""

import re
from collections import namedtuple

from .errors import SpecInvalid, UnknownDerived, UnknownLetter

FLAVORS = ("pm+", "pmk", "m")

# Generator kinds whose mapping classes fix every puncture and preserve
# all local orientations; the "pm+" alphabet consists of exactly these.
PMPLUS_KINDS = frozenset("auedb")

# Generator kinds that act on H_1 as involutions.  Every other kind is a
# twist about a two-sided curve and acts as a transvection T, with
# (T - I)^2 = 0 (cf. Farb and Margalit, A Primer on Mapping Class
# Groups, Prop. 6.3, for orientable surfaces).
INVOLUTION_KINDS = frozenset("udsv")


class Gen(namedtuple("Gen", "kind index")):
    """A generator symbol: a crosscap-chain twist a_j, the crosscap
    transposition u_1, a boundary-chain twist e_j, a boundary-parallel
    twist d_j, the extra twist b_1, a puncture slide v_j, or an
    elementary braid s_j."""

    __slots__ = ()

    @property
    def name(self):
        return "%s%d" % (self.kind, self.index)


class SurfaceSpec:
    """The tuple (g, s, n, k, flavor) selecting a surface and a group.
    A spec is an immutable value: equal, and hashed alike, exactly when
    its five fields are."""

    def __init__(self, g, s, n, k=0, flavor="pm+"):
        if flavor not in FLAVORS:
            raise SpecInvalid("unknown flavor %r" % (flavor,))
        if g < 3:
            raise SpecInvalid("genus must be at least 3")
        if s < 0 or n < 0:
            raise SpecInvalid("boundary and puncture counts must be non-negative")
        if not 0 <= k <= n:
            raise SpecInvalid("k must satisfy 0 <= k <= n")
        if flavor == "pm+" and k != n:
            raise SpecInvalid("flavor pm+ preserves orientation at all punctures (k = n)")
        if flavor == "m" and n < 2:
            raise SpecInvalid("flavor m needs at least 2 punctures")
        self.__dict__.update(g=g, s=s, n=n, k=k, flavor=flavor)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _key(self):
        return self.g, self.s, self.n, self.k, self.flavor

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SurfaceSpec(g=%r, s=%r, n=%r, k=%r, flavor=%r)" % self._key()

    @classmethod
    def make(cls, g, s, n, k=None, flavor="pm+"):
        """Build a spec, defaulting k to the flavor's natural value."""
        if k is None:
            k = n if flavor == "pm+" else 0
        return cls(g, s, n, k, flavor)

    @property
    def d(self):
        """Rank of H_1 of the surface."""
        return self.g + self.s + self.n - 1

    def require_free_module(self):
        """The pipeline needs H_1 of the surface to be free (s+n >= 1)."""
        if self.s + self.n < 1:
            raise SpecInvalid("computation requires at least one boundary or puncture")

    def generators(self):
        """The ordered generator alphabet of the selected group."""
        self.require_free_module()
        gens = [Gen("a", j) for j in range(1, self.g)]
        gens.append(Gen("u", 1))
        gens.extend(Gen("e", j) for j in range(1, self.s + self.n))
        if self.g in (3, 4):
            gens.extend(Gen("d", j) for j in range(1, self.s))
        if self.g >= 4:
            gens.append(Gen("b", 1))
        if self.flavor == "pmk":
            gens.extend(Gen("v", j) for j in range(self.k + 1, self.n + 1))
        elif self.flavor == "m":
            gens.append(Gen("v", self.n))
            gens.extend(Gen("s", j) for j in range(1, self.n))
        return gens


def spec_grid(genus=None, boundary=None, punctures=None, k=None, flavor=None):
    """The specs of a grid, walked by (g, s, n): first the fixed-puncture
    specs in k order, with the full group "pm+" at k = n, then the "m"
    spec when n >= 2.  Each range left out takes its acceptance-grid
    value (g 3-9, s 0-3, n 0-3, every k <= n), so with no arguments this
    is the 329-spec acceptance grid.  `flavor` keeps one family: "pmk"
    the fixed-puncture specs, "pm+" only those at k = n (ignoring `k`),
    "m" only the permutation specs."""
    for g in range(3, 10) if genus is None else genus:
        for s in range(4) if boundary is None else boundary:
            for n in range(4) if punctures is None else punctures:
                if flavor != "m" and s + n >= 1:
                    ks = range(n + 1) if k is None else k
                    for kk in [n] if flavor == "pm+" else ks:
                        if kk <= n:
                            yield SurfaceSpec.make(
                                g, s, n, kk, "pm+" if kk == n else "pmk"
                            )
                if flavor in (None, "m") and n >= 2:
                    yield SurfaceSpec.make(g, s, n, flavor="m")


_LETTER_RE = re.compile(r"^([audebvs])(\d+)(\^-1)?$")


class Word(tuple):
    """A word in the generator alphabet: a tuple of (Gen, +-1) letters."""

    __slots__ = ()

    @classmethod
    def of(cls, *letters):
        out = []
        for item in letters:
            if isinstance(item, Gen):
                out.append((item, 1))
            else:
                out.append((item[0], item[1]))
        return cls(out)

    @classmethod
    def parse(cls, text):
        """Parse letters like "a1 a2 u1^-1" separated by whitespace."""
        letters = []
        for token in text.split():
            m = _LETTER_RE.match(token)
            if not m:
                raise UnknownLetter("cannot parse letter %r" % token)
            kind, idx, inv = m.groups()
            letters.append((Gen(kind, int(idx)), -1 if inv else 1))
        return cls(letters)

    def __mul__(self, other):
        return Word(tuple(self) + tuple(other))

    def inverse(self):
        return Word((g, -e) for g, e in reversed(self))

    def __pow__(self, m):
        if m < 0:
            return self.inverse() ** (-m)
        return Word(tuple(self) * m)


def derived_rows(gen, spec, moved):
    """The moved rows of psi(gen) and psi(gen)^-1, in the form of
    `Representation.moved`, for a derived letter: a composite mapping
    class used in relations, with its one-level word.  `moved` holds the
    alphabet's rows.  Another u_i with i >= 2 raises UnknownDerived, and
    any other letter UnknownLetter.

    Write A_j = psi(a_j): A_j - I = (gamma_j + gamma_{j+1}) (gamma_{j+1}
    - gamma_j)^T, and A_j^-1 - I is minus that (a transvection).

    - e_0 is a_1: its rows are those of a_1.
    - u_i = a_{i-1} a_i u_{i-1}^-1 a_i^-1 a_{i-1}^-1 (2 <= i <= g-1)
      swaps gamma_i and gamma_{i+1}, an involution, as u_1 swaps gamma_1
      and gamma_2.  By induction on i: psi(u_{i-1}) = I - f f^T, f =
      gamma_{i-1} - gamma_i, so with M = A_{i-1} A_i, psi(u_i) =
      I - (M f) (M^-T f)^T.  A_i takes f to gamma_{i-1} + gamma_{i+1}
      and A_{i-1} that to h = gamma_{i+1} - gamma_i; and A_{i-1}^T
      takes h to gamma_{i-1} - 2 gamma_i + gamma_{i+1}, which A_i^T
      takes to f, so M^-T f = h too, and psi(u_i) = I - h h^T.
    - e_{s+n} = W a_1^-1 W^-1, W = a_2..a_{g-1} u_{g-1}..u_2, has
      psi(e_{s+n})^sign = I - sign c (gamma_2 - gamma_1)^T, c =
      gamma_1 + gamma_2 + 2 (gamma_3 + ... + gamma_g).  It is psi(W)
      (A_1^-1 - I) psi(W)^-1 = -psi(W) (gamma_1 + gamma_2) (gamma_2 -
      gamma_1)^T psi(W)^-1 plus I.  The u's take gamma_1 + gamma_2 to
      gamma_1 + gamma_g, and A_{g-1}, ..., A_2 (A_j gamma_{j+1} =
      gamma_j + 2 gamma_{j+1}) that to c.  Each A_j^T (j >= 2) takes
      gamma_j - gamma_1 to gamma_{j+1} - gamma_1, and the u's take
      gamma_g - gamma_1 back to gamma_2 - gamma_1, so psi(W)^T fixes
      gamma_2 - gamma_1, and so does psi(W)^-T.  As (gamma_2 -
      gamma_1)^T c = 0, the inverse flips the sign.
    """
    g, (kind, i) = spec.g, gen
    if kind == "e" and i == 0:
        a1 = Gen("a", 1)
        return moved[a1, 1], moved[a1, -1]
    if kind == "e" and i == spec.s + spec.n:
        out = []
        for sign in (1, -1):  # row r: e_r + sign c_r (gamma_1 - gamma_2)
            rows = {0: {0: 1 + sign, 1: -sign}, 1: {0: sign, 1: 1 - sign}}
            rows.update({r: {0: 2 * sign, 1: -2 * sign, r: 1}
                         for r in range(2, g)})
            out.append(_moved_rows(rows))
        return tuple(out)
    if kind == "u" and 2 <= i <= g - 1:
        rows = ((i - 1, ((i, 1),)), (i, ((i - 1, 1),)))
        return rows, rows
    if kind == "u" and i >= 2:
        raise UnknownDerived("no derived word %r for this surface" % gen.name)
    raise UnknownLetter("no matrix for generator %s" % gen.name)


class Representation:
    """The action of the group generators on H_1 of the surface.

    `moved[gen, sign]` holds the rows of psi(gen)^sign that differ from
    the identity, as (row, ((col, value), ...)) with the rows and the
    nonzero columns ascending; every other row is an identity row."""

    def __init__(self, spec, moved):
        self.spec = spec
        self.moved = moved

    @property
    def d(self):
        return self.spec.d

    def apply_letter(self, q, gen, exponent):
        """psi(gen)^exponent q, for a d x d matrix q given as a list of
        sparse rows (dicts column -> nonzero value).

        Row r of the product is the combination of the rows of q that
        the nonzeros of row r of psi(gen)^exponent select, so only the
        rows where psi(gen)^exponent differs from the identity are
        computed.  The returned list shares the other rows with q, which
        is left unchanged.  A derived letter's rows are taken in closed
        form (`derived_rows`) on first use and kept in `moved`."""
        key = gen, 1 if exponent > 0 else -1
        if key not in self.moved:
            self.moved[gen, 1], self.moved[gen, -1] = derived_rows(
                gen, self.spec, self.moved)
        out = list(q)
        for r, entries in self.moved[key]:
            row = {}
            for c, v in entries:
                for t, x in q[c].items():
                    w = row.get(t, 0) + v * x
                    if w:
                        row[t] = w
                    elif t in row:
                        del row[t]
            out[r] = row
        return out


class _IdentityRows(dict):
    """Rows of a matrix being filled: row r is the identity row {r: 1}
    until it is first written."""

    def __missing__(self, r):
        row = self[r] = {r: 1}
        return row


def _moved_rows(rows):
    """The rows of `rows` (row -> dict column -> value) that differ from
    the identity, in the form of `Representation.moved`."""
    out = []
    for r in sorted(rows):
        entries = tuple((c, v) for c, v in sorted(rows[r].items()) if v)
        if entries != ((r, 1),):
            out.append((r, entries))
    return tuple(out)


def build_representation(spec, sign_variant=None):
    """The moved rows of all generators of the given group and of their
    inverses, which are formed by generator kind (see `INVOLUTION_KINDS`).

    `sign_variant` deliberately flips one sign to exercise the
    consistency checks: "e" flips the third delta coefficient in the
    first column of every e_j with j >= 3, "s" flips the delta_1
    coefficient inside the last elementary braid.  Both variants break
    the boundary-map consistency verified by `chains` and `cli verify`.
    """
    spec.require_free_module()
    if sign_variant not in (None, "e", "s"):
        raise ValueError("sign_variant must be None, 'e' or 's'")
    g, s, n, d = spec.g, spec.s, spec.n, spec.d
    moved = {}
    for gen in spec.generators():
        kind, j = gen
        m = _IdentityRows()
        if kind == "a":
            m[j - 1][j - 1] = 0
            m[j - 1][j] = 1
            m[j][j - 1] = -1
            m[j][j] = 2
        elif kind == "u":
            m[0][0] = m[1][1] = 0
            m[0][1] = m[1][0] = 1
        elif kind == "b":
            for r in range(4):
                for c in range(4):
                    m[r][c] = (r == c) + (1 if c % 2 else -1)
        elif kind == "e":
            m[0][0] = 0
            m[1][0] = -1
            m[0][1] = 1
            m[1][1] = 2
            for t in range(1, j + 1):
                m[g + t - 1][0] = -1
                m[g + t - 1][1] = 1
            if sign_variant == "e" and j >= 3:
                m[g + 2][0] = 1
        elif kind == "d":
            pass
        elif kind == "s":
            if j < n - 1:
                p = g + s + j - 1
                m[p][p] = m[p + 1][p + 1] = 0
                m[p][p + 1] = m[p + 1][p] = 1
            else:
                for r in range(g):
                    m[r][d - 1] = -2
                for r in range(g, d):
                    m[r][d - 1] = -1
                if sign_variant == "s" and d - 1 > g:
                    m[g][d - 1] = 1
        elif kind == "v":
            if j < n:
                p = g + s + j - 1
                m[p][p] = -1
                m[p][g - 1] = 1
            else:
                for r in range(g):
                    m[r][g - 1] = -2
                for r in range(g, d):
                    m[r][g - 1] = -1
                m[g - 1][g - 1] = -1
        rows = moved[gen, 1] = _moved_rows(m)
        # An involution is its own inverse.  A transvection T has inverse
        # 2I - T, since T (2I - T) = I - (T - I)^2 = I; a row of 2I - T
        # is an identity row exactly when that row of T is one.
        if kind in INVOLUTION_KINDS:
            moved[gen, -1] = rows
        else:
            inverse = {r: {c: -v for c, v in entries} for r, entries in rows}
            for r, row in inverse.items():
                row[r] = row.get(r, 0) + 2
            moved[gen, -1] = _moved_rows(inverse)
    return Representation(spec, moved)


def evaluate_word(rep, word):
    """The matrix of a word, psi(l_1) ... psi(l_m), as a list of sparse
    rows (dicts column -> nonzero value), built right to left one letter
    step at a time, a derived letter being one step."""
    out = [{r: 1} for r in range(rep.d)]
    for gen, e in reversed(word):
        out = rep.apply_letter(out, gen, e)
    return out
