"""Small exact linear algebra over F_p: one echelon basis, grown row by row.

An echelon basis maps each pivot column to its basis row, which is zero
before that column and 1 at it.  extend_basis reduces one row against
such a basis and adds what is left as a new pivot; row_reduce is its
batch form, starting from an empty basis.  A caller that adds rows in
stages (cokernel_length, slice by slice) keeps the basis it got from
row_reduce and eliminates each later row once.
"""
from __future__ import annotations


def row_reduce(rows: list[list[int]], p: int) -> tuple[int, dict[int, list[int]]]:
    """Echelon basis mod p of the span of rows; returns (rank, pivots)."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        extend_basis(pivots, row, p)
    return len(pivots), pivots


def extend_basis(pivots: dict[int, list[int]], row: list[int], p: int) -> bool:
    """Reduce row mod p against an echelon basis; True when it adds a pivot.

    A row that stays nonzero joins the basis under its first nonzero
    column; a row in the span of the basis leaves it unchanged and gives
    False.
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
