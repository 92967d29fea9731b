"""Dense matrix helpers used only as test references."""

from mcgtwist.intlin import IntMatrix


def identity(n):
    """The n x n identity IntMatrix."""
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    """The dense integer product a @ b of two IntMatrix values."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = list(zip(*b.data)) if b.data else []
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.data]
    )


def matvec(m, v):
    """The integer vector m @ v, for an IntMatrix m and a list v."""
    return [sum(a * b for a, b in zip(row, v)) for row in m.data]


def column(m, j):
    """Column j of an IntMatrix, as a list."""
    return [row[j] for row in m.data]
