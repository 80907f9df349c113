"""Exact Gaussian elimination over Q(zeta_n).

Matrices are lists of row lists of ``Cyc`` scalars.  Everything here is
fraction-free in spirit: pivots are inverted exactly, so ranks and solution
vectors are certificates, not approximations.  Rows are dense, but a zero
entry is never multiplied: scaling and elimination skip it.
"""

from __future__ import annotations

from .cyclotomic import Cyc


def rank(matrix: list[list[Cyc]]) -> int:
    acc = SpanAccumulator()
    for row in matrix:
        acc.add(row)
    return acc.rank


def inverse(matrix: list[list[Cyc]]) -> list[list[Cyc]]:
    """Inverse of a square matrix; raises ArithmeticError when singular."""
    size = len(matrix)
    if any(len(r) != size for r in matrix):
        raise ValueError("matrix must be square")
    if size == 0:
        return []
    n = matrix[0][0].n
    aug = [list(row) + [Cyc.one(n) if i == j else Cyc.zero(n) for j in range(size)]
           for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ArithmeticError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [c * inv if c else c for c in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b if b else a for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


class SpanAccumulator:
    """Incremental row-echelon basis; ``add`` reports whether the row was new."""

    def __init__(self):
        self.rows: list[list[Cyc]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: list[Cyc]) -> bool:
        vec = list(row)
        for basis_row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                vec = [a - c * b if b else a for a, b in zip(vec, basis_row)]
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            return False
        inv = vec[pivot].inv()
        self.rows.append([c * inv if c else c for c in vec])
        self.pivots.append(pivot)
        return True
