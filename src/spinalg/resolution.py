"""Exactness of the differentials resolution at a node.

Over S = K[z, w]/(z*w), the module of differentials D is generated by
dz and dw with the single relation w*dz + z*dw = 0 (differentiate the
node equation).  It sits in

    0 -> S --(f -> (z*f, w*f))--> S + S --((f, g) -> f*dw + g*dz)--> D -> 0

and this module checks exactness of that sequence with exact linear
algebra over F_p: the composite vanishes, the first map is injective,
and the kernel of the second map equals the image of the first.  The
graded slices of degree 2 and above all look alike, so degrees 0, 1 and
2 decide exactness in every degree (see resolution_exact_check).
"""
from __future__ import annotations

from . import _linalg
from .field import FieldConfig

# Degrees 0..DECIDING_DEGREE decide exactness in every degree.
DECIDING_DEGREE = 2


def _basis(degree: int) -> list[tuple[int, int]]:
    """Monomial K-basis of the degree-d slice of K[z, w]/(z*w)."""
    if degree < 0:
        return []
    if degree == 0:
        return [(0, 0)]
    return [(degree, 0), (0, degree)]


def _mul_var(mon: tuple[int, int], var: str) -> tuple[int, int] | None:
    """Multiply a basis monomial by z or w; None when z*w kills it."""
    ze, we = mon
    if var == "z":
        return None if we > 0 else (ze + 1, 0)
    return None if ze > 0 else (0, we + 1)


def _row(index: dict[tuple[int, int], int], dz_mon, dw_mon) -> list[int]:
    """Coordinates of dz_mon*dz + dw_mon*dw over S_m*dz + S_m*dw.

    index numbers the S_m basis; a monomial that z*w killed (None) adds
    nothing.  The first map's target (S_m)^2 uses the same layout, its
    two summands in place of dz and dw.
    """
    row = [0] * (2 * len(index))
    if dz_mon is not None:
        row[index[dz_mon]] = 1
    if dw_mon is not None:
        row[len(index) + index[dw_mon]] = 1
    return row


def resolution_exact_check(field: FieldConfig, degree_bound: int) -> bool:
    """Exactness of the node differentials sequence in degrees 0..degree_bound.

    Degree m compares: S_(m-1) --first--> (S_m)^2 --second--> D_(m+1),
    where D_(m+1) is spanned by S_m * dz and S_m * dw modulo the
    multiples of (w*dz + z*dw) by S_(m-1).  Returns False on the first
    failed degree.

    Only degrees 0..min(degree_bound, 2) are computed, and a bound of 2
    or more certifies every degree.  For m >= 2 the slices are
    S_(m-1) = {z^(m-1), w^(m-1)} and S_m = {z^m, w^m}, listed in that
    order, and every map is monomial: z and w send z^(m-1) to z^m and 0,
    and w^(m-1) to 0 and w^m.  So the relation, first-map and second-map
    rows of degree m are exactly those of degree 2, entry for entry.

    What carries content is that the first map f -> (z*f, w*f) is
    injective and that its two encodings agree: each first-map row,
    pushed through the second map, dies modulo the relation (the
    composite).  D is S^2 modulo the relation rows and the second map
    only swaps halves, so middle exactness comes down to the rank of
    the relation rows.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    p = field.p
    for m in range(min(degree_bound, DECIDING_DEGREE) + 1):
        dom = _basis(m - 1)
        # the degree-(m+1) slice of raw D is S_m*dz + S_m*dw (dz, dw count 1)
        mid = {mon: k for k, mon in enumerate(_basis(m))}

        # relation rows: mu * (w*dz + z*dw) for mu in S_(m-1)
        rel_rows = [_row(mid, _mul_var(mu, "w"), _mul_var(mu, "z")) for mu in dom]
        _, basis = _linalg.row_reduce(rel_rows, p)

        # first map: f -> (z*f, w*f) into (S_m)^2
        first_rows = [_row(mid, _mul_var(mon, "z"), _mul_var(mon, "w")) for mon in dom]
        if _linalg.row_reduce(first_rows, p)[0] != len(dom):  # injectivity
            return False

        # composite: the second map (f, g) -> f*dw + g*dz swaps the halves
        # of a first-map row; the result must die modulo the relation, so
        # it adds no pivot (and a row in the span leaves the basis as it is)
        half = len(mid)
        for row in first_rows:
            if _linalg.extend_basis(basis, row[half:] + row[:half], p):
                return False

        # second map on (S_m)^2: (f, g) -> f*dw + g*dz; its rank into D is
        # the count of pivots its rows add to the relation basis
        second_rows = ([_row(mid, None, mon) for mon in mid]
                       + [_row(mid, mon, None) for mon in mid])
        second_rank = sum(_linalg.extend_basis(basis, row, p) for row in second_rows)
        kernel_dim = 2 * len(mid) - second_rank
        if kernel_dim != len(dom):  # exactness in the middle
            return False
    return True
