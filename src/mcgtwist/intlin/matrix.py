"""Dense exact integer matrices.

Small and simple: the matrices handled here are at most a few hundred
rows, so plain lists of Python ints are fast enough and exact.
"""

from ..errors import NoIntegerSolution


class IntMatrix:
    """An immutable-by-convention integer matrix stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [list(map(int, row)) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self):
        return "IntMatrix(%r)" % (self.data,)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.data)) if other.data else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def is_identity(self):
        return self.rows == self.cols and all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.data)
            for j, v in enumerate(row)
        )

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [row[:] for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def inverse(self):
        """Inverse over the integers; requires det = +-1."""
        from .lattice import hnf

        h, u = hnf(self)
        if not h.is_identity():
            raise NoIntegerSolution("matrix is not invertible over the integers")
        return u
