"""Dense matrix helpers used only as test references."""


def matvec(m, v):
    """The integer vector m @ v, for an IntMatrix m and a list v."""
    return [sum(a * b for a, b in zip(row, v)) for row in m.data]


def column(m, j):
    """Column j of an IntMatrix, as a list."""
    return [row[j] for row in m.data]
