"""Dense matrix helpers used only as test references.

A dense matrix here is a list of rows, each a list of ints.
"""


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
            if col_parity != functional.beta(c + 1):
                failures.append(
                    "%s: beta not invariant under psi(%s) at xi_%d"
                    % (functional.name, gen.name, c + 1)
                )
                break
    return failures
