"""Dense exact integer matrices.

Small and simple: the matrices handled here are at most a few hundred
rows, so plain lists of Python ints are fast enough and exact.
"""


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
