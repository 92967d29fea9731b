"""Kernels for sparse exact integer linear algebra.

Vectors are dicts mapping column index -> nonzero integer.  An echelon
basis is a dict mapping pivot column -> row vector whose smallest column
is that pivot with a positive entry.  A vector over GF(2) is an int
bit vector, and a GF(2) echelon a dict mapping its lowest pivot bit ->
row.  These functions are the hot inner loops of the whole package.
"""

from heapq import heapify, heappop, heappush


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def vec_axpy(dst, src, q):
    """dst += q * src, dropping entries that become zero."""
    if not q:
        return
    for j, v in src.items():
        w = dst.get(j, 0) + q * v
        if w:
            dst[j] = w
        elif j in dst:
            del dst[j]


def _combine(x, u, y, v):
    # x*u + y*v as a fresh dict
    out = {}
    if x:
        for j, w in u.items():
            out[j] = x * w
    if y:
        for j, w in v.items():
            t = out.get(j, 0) + y * w
            if t:
                out[j] = t
            elif j in out:
                del out[j]
    return out


def echelon_insert(pivots, row):
    """Insert a sparse row into the echelon basis, mutating `pivots`.

    The row is consumed.  Returns True if the row increased the rank
    (became a new pivot row), False if it reduced to zero.
    """
    heap = list(row)
    heapify(heap)
    while heap:
        j = heappop(heap)
        a = row.get(j, 0)
        if not a:
            continue
        p = pivots.get(j)
        if p is None:
            row = {c: v for c, v in row.items() if v and c >= j}
            if row[j] < 0:
                row = {c: -v for c, v in row.items()}
            pivots[j] = row
            return True
        b = p[j]
        if a % b == 0:
            q = a // b
            for c, v in p.items():
                w = row.get(c, 0) - q * v
                if w:
                    if c not in row and c > j:
                        heappush(heap, c)
                    row[c] = w
                elif c in row:
                    del row[c]
        else:
            g, x, y = xgcd(b, a)
            newp = _combine(x, p, y, row)
            row = _combine(b // g, row, -(a // g), p)
            row.pop(j, None)
            pivots[j] = newp
            heap = list(row)
            heapify(heap)
    return False


def echelon_reduce(pivots, row):
    """Reduce a row against an echelon basis without mutating anything.

    Returns the remainder: row minus an integer combination of the
    pivot rows, with every entry at a pivot column lying in [0, pivot).
    """
    rem = dict(row)
    heap = list(rem)
    heapify(heap)
    while heap:
        j = heappop(heap)
        a = rem.get(j, 0)
        if not a:
            continue
        p = pivots.get(j)
        if p is None:
            continue
        q = a // p[j]
        if q:
            for c, v in p.items():
                w = rem.get(c, 0) - q * v
                if w:
                    if c not in rem and c > j:
                        heappush(heap, c)
                    rem[c] = w
                elif c in rem:
                    del rem[c]
    return {c: v for c, v in rem.items() if v}


def parity_mask(vec):
    """A sparse vector mod 2, as a bit vector (bit c: entry c is odd)."""
    m = 0
    for c, v in vec.items():
        if v & 1:
            m |= 1 << c
    return m


def gf2_reduce(rows, vec, full):
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


def gf2_insert(rows, vec, full):
    """Insert a bit vector into a GF(2) echelon (see `gf2_reduce`);
    returns the residual after reduction."""
    vec = gf2_reduce(rows, vec, full)
    low = vec & full
    if low:
        rows[low & -low] = vec
    return vec


def _peel_unit_singletons(mat, colindex, moving_rows=(), moving_cols=()):
    """Delete, in place, every row of `mat` (with `colindex`, column ->
    row ids) that splits off as a factor 1, with the column it splits
    off at; return those columns, one per deleted row.  Row i splits off
    when its entry at column c is +-1 and is alone either in its column
    or in its row:

    - alone in its column: column operations with column c clear the
      rest of row i and change no other row;
    - alone in its row (row i is +-e_c): row operations with row i clear
      column c elsewhere and change no other column.

    Either way the matrix becomes [+-1] (+) M, where M is the matrix
    with row i and column c deleted and every other entry as it was, so
    its invariant factors are 1 followed by those of M.  Deleting them
    can make new singletons, so a worklist repeats the step; each step
    deletes a row, so the loop ends.

    The same steps hold for every matrix mat + X with X zero outside
    the rows `moving_rows` and the columns `moving_cols`, when no column
    of `moving_cols` serves as "alone in its column" and no row of
    `moving_rows` as "alone in its row".  A column c outside
    `moving_cols` is the same in every mat + X, so it has one entry in
    each; column operations with it change row i only, whatever X puts
    in row i.  A row outside `moving_rows` is the same in every mat + X,
    so it is +-e_c in each, and row operations with it clear column c in
    every row, X's entries there included.  Each step deletes column c
    from every row and leaves X zero outside the same rows and columns,
    so by induction the invariant factors of every mat + X are one 1 per
    deleted row followed by those of the rows left, each with its own
    entries of X, restricted to the columns not returned.
    """
    cut = []
    work = list(mat)
    while work:
        i = work.pop()
        ri = mat.get(i)
        if not ri:
            continue
        if len(ri) == 1 and i not in moving_rows:
            (c, v), = ri.items()
            if v != 1 and v != -1:
                continue
            for k in colindex.pop(c):
                if k != i:
                    rk = mat[k]
                    del rk[c]
                    if len(rk) == 1:
                        work.append(k)
        else:
            for c, v in ri.items():
                if ((v == 1 or v == -1) and len(colindex[c]) == 1
                        and c not in moving_cols):
                    break
            else:
                continue
            for j in ri:
                s = colindex[j]
                s.discard(i)
                if len(s) == 1:
                    work.extend(s)
        del mat[i]
        cut.append(c)
    return cut


def _sparse_matrix(rows):
    """`rows` as (mat, colindex): mat maps the index of each row to a
    copy of it, colindex a column to the indices of the rows with an
    entry there."""
    mat = {}
    colindex = {}
    for i, r in enumerate(rows):
        mat[i] = dict(r)
        for c in r:
            colindex.setdefault(c, set()).add(i)
    return mat, colindex


def peel_unit_singletons(rows, moving_rows, moving_cols):
    """The unit singletons of a family of matrices, split off once.

    The family is every matrix rows + X, where X is zero outside the
    rows `moving_rows` (indices into `rows`) and the columns
    `moving_cols`.  Returns (rest, cut): `cut` lists one column per row
    split off, and `rest` maps the index of every other row to that row
    with the columns of `cut` deleted (possibly empty).  By the proof of
    `_peel_unit_singletons`, the invariant factors of every rows + X are
    len(cut) 1s followed by those of the rows of `rest`, each plus its
    row of X with the columns of `cut` deleted.  `rows` is not mutated.
    """
    mat, colindex = _sparse_matrix(rows)
    cut = _peel_unit_singletons(mat, colindex, moving_rows, moving_cols)
    return mat, cut


def snf_factors(rows):
    """Invariant factors d1 | d2 | ... of the lattice spanned by `rows`.

    Input rows are sparse dicts; they are not mutated.  The output is the
    positive diagonal of the Smith normal form (one entry per unit of
    rank, factors of 1 included).

    Two phases: every unit entry alone in its row or column splits off
    as a factor 1 (`_peel_unit_singletons`), leaving a core of a few rows
    of `compute_h1`'s near-bidiagonal unit bands; a pivot loop and gcd/lcm
    exchanges give the core's chain, and the 1s go in front of it.
    """
    mat, colindex = _sparse_matrix(rows)

    def row_axpy(i, isrc, q):
        dst = mat[i]
        src = mat[isrc]
        for c, v in src.items():
            w = dst.get(c, 0) + q * v
            if w:
                if c not in dst:
                    colindex.setdefault(c, set()).add(i)
                dst[c] = w
            elif c in dst:
                del dst[c]
                colindex[c].discard(i)

    ones = len(_peel_unit_singletons(mat, colindex))
    factors = []
    while mat:
        # Rows can empty out while other pivots are cleared.
        for i in [i for i, r in mat.items() if not r]:
            del mat[i]
        if not mat:
            break
        # Pivot choice on the core left by the peel: smallest |value|,
        # then sparsest row/column, which keeps fill-in small.
        best = None
        for i, r in mat.items():
            for c, v in r.items():
                key = (abs(v), len(r), len(colindex[c]))
                if best is None or key < best[0]:
                    best = (key, i, c)
            if best is not None and best[0][0] == 1 and best[0][1] == 1:
                break
        _, i0, c0 = best
        while True:
            if mat[i0][c0] < 0:
                mat[i0] = {c: -v for c, v in mat[i0].items()}
            v0 = mat[i0][c0]
            # Clear the pivot column with row operations.
            dirty = True
            while dirty:
                dirty = False
                for i in list(colindex.get(c0, ())):
                    if i == i0 or i not in mat:
                        continue
                    a = mat[i].get(c0, 0)
                    if not a:
                        colindex[c0].discard(i)
                        continue
                    row_axpy(i, i0, -(a // v0))
                    rem = mat[i].get(c0, 0)
                    if rem:
                        # Remainder is a strictly smaller positive pivot.
                        i0, v0 = i, rem
                        dirty = True
                        break
            # Pivot column isolated; clear the pivot row via column
            # operations (these touch only row i0 since its column is
            # now zero elsewhere).  A non-divisible residue becomes the
            # new, strictly smaller pivot and we restart.
            bad = None
            for c, a in mat[i0].items():
                if c != c0 and a % v0:
                    bad = c
                    break
            if bad is None:
                break
            mat[i0][bad] = mat[i0][bad] % v0
            c0 = bad
        factors.append(mat[i0][c0])
        for c in mat[i0]:
            s = colindex.get(c)
            if s is not None:
                s.discard(i0)
        del mat[i0]

    # Repair the divisibility chain with gcd/lcm exchanges.
    factors.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g, _, _ = xgcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    changed = True
        factors.sort()
    return [1] * ones + factors
