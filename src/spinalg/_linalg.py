"""Small exact linear algebra over F_p (dense row reduction)."""
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
