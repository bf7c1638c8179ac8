"""Small exact linear algebra over F_p (dense row reduction)."""
from __future__ import annotations


def row_reduce(rows: list[list[int]], p: int) -> tuple[int, list[list[int]]]:
    """Reduced row echelon form mod p; returns (rank, reduced nonzero rows)."""
    rows = [[c % p for c in row] for row in rows if any(c % p for c in row)]
    if not rows:
        return 0, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(c * inv) % p for c in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    reduced = [row for row in rows if any(row)]
    return len(pivots), reduced


def rank(rows: list[list[int]], p: int) -> int:
    return row_reduce(rows, p)[0]
