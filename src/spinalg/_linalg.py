"""Small exact linear algebra over F_p (dense row reduction).

row_reduce eliminates a whole matrix at once.  extend_basis grows an
echelon basis one row at a time, so a caller that adds rows in stages
(cokernel_length, slice by slice) eliminates each row once instead of
re-ranking everything it has added so far.
"""
from __future__ import annotations


def row_reduce(rows: list[list[int]], p: int) -> tuple[int, list[list[int]]]:
    """Row echelon form mod p by forward elimination; returns (rank, rows).

    The first rank rows carry the pivots; any rows after them are zero.
    """
    rows = [[c % p for c in row] for row in rows if any(c % p for c in row)]
    if not rows:
        return 0, []
    r = 0
    for col in range(len(rows[0])):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = pow(prow[col], -1, p)
        for k in range(r + 1, len(rows)):
            if rows[k][col]:
                f = rows[k][col] * inv % p
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], prow)]
        r += 1
        if r == len(rows):
            break
    return r, rows


def rank(rows: list[list[int]], p: int) -> int:
    return row_reduce(rows, p)[0]


def extend_basis(pivots: dict[int, list[int]], row: list[int], p: int) -> bool:
    """Reduce row mod p against an echelon basis; True when it adds a pivot.

    pivots maps each pivot column to its basis row, which is zero before
    that column and 1 at it.  A row that stays nonzero joins the basis
    under its first nonzero column; a row in the span of the basis leaves
    it unchanged and gives False.  Feeding the pivot rows of row_reduce
    through this function in order builds the basis of their span.
    """
    row = [c % p for c in row]
    for col in range(len(row)):
        c = row[col]
        if not c:
            continue
        prow = pivots.get(col)
        if prow is None:
            inv = pow(c, -1, p)
            pivots[col] = [a * inv % p for a in row]
            return True
        row = [(a - c * b) % p for a, b in zip(row, prow)]
    return False
