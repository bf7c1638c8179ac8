"""Degreewise exactness of the differentials resolution at a node.

Over S = K[z, w]/(z*w), the module of differentials D is generated by
dz and dw with the single relation w*dz + z*dw = 0 (differentiate the
node equation).  It sits in

    0 -> S --(f -> (z*f, w*f))--> S + S --((f, g) -> f*dw + g*dz)--> D -> 0

and this module checks exactness of that sequence degree by degree with
exact linear algebra over F_p: the composite vanishes, the first map is
injective, and the kernel of the second map equals the image of the
first up to the requested degree.
"""
from __future__ import annotations

from . import _linalg
from .field import FieldConfig


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


def resolution_exact_check(field: FieldConfig, degree_bound: int) -> bool:
    """Exactness of the node differentials sequence in degrees 0..degree_bound.

    Degree m compares: S_(m-1) --first--> (S_m)^2 --second--> D_(m+1),
    where D_(m+1) is spanned by S_m * dz and S_m * dw modulo the
    multiples of (w*dz + z*dw) by S_(m-1).  Returns False on the first
    failed degree.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    p = field.p
    for m in range(degree_bound + 1):
        dom = _basis(m - 1)
        mid = _basis(m)
        mid_index = {mon: k for k, mon in enumerate(mid)}
        # the degree-(m+1) slice of raw D is S_m*dz + S_m*dw (dz, dw count 1)
        width = 2 * len(mid)

        # relation rows: mu * (w*dz + z*dw) for mu in S_(m-1)
        rel_rows = []
        for mu in dom:
            row = [0] * width
            dz_part = _mul_var(mu, "w")
            dw_part = _mul_var(mu, "z")
            if dz_part is not None:
                row[mid_index[dz_part]] = 1
            if dw_part is not None:
                row[len(mid) + mid_index[dw_part]] = 1
            if any(row):
                rel_rows.append(row)
        rel_rank = _linalg.rank(rel_rows, p)

        # second map on (S_m)^2: (f, g) -> f*dw + g*dz
        second_rows = []
        for comp in (0, 1):
            for mon in mid:
                row = [0] * width
                if comp == 0:
                    row[len(mid) + mid_index[mon]] = 1
                else:
                    row[mid_index[mon]] = 1
                second_rows.append(row)
        second_rank = _linalg.rank(second_rows + rel_rows, p) - rel_rank
        kernel_dim = 2 * len(mid) - second_rank

        # first map: f -> (z*f, w*f) into (S_m)^2
        first_rows = []
        for mon in dom:
            row = [0] * (2 * len(mid))
            zm = _mul_var(mon, "z")
            wm = _mul_var(mon, "w")
            if zm is not None:
                row[mid_index[zm]] = 1
            if wm is not None:
                row[len(mid) + mid_index[wm]] = 1
            first_rows.append(row)
        if _linalg.rank(first_rows, p) != len(dom):  # injectivity
            return False

        # composite: (z*f)*dw + (w*f)*dz must die modulo the relation
        for mon in dom:
            row = [0] * width
            zm = _mul_var(mon, "z")
            wm = _mul_var(mon, "w")
            if zm is not None:
                row[len(mid) + mid_index[zm]] = 1
            if wm is not None:
                row[mid_index[wm]] = 1
            if any(row) and _linalg.rank(rel_rows + [row], p) != rel_rank:
                return False

        if kernel_dim != len(dom):  # exactness in the middle
            return False
    return True
