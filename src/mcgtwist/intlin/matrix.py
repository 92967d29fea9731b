"""Dense exact integer matrices.

Small and simple: the matrices handled here are at most a few hundred
rows, so plain lists of Python ints are fast enough and exact.  They
hold the generator matrices and word values; products are taken on
sparse rows (`surface.Representation.apply_letter`).
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

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self):
        return "IntMatrix(%r)" % (self.data,)
