from __future__ import annotations

import pytest

from spinalg._linalg import extend_basis, row_reduce
from spinalg.field import FieldConfig
from spinalg.resolution import resolution_exact_check


def test_exactness_small_degrees():
    field = FieldConfig(5, 1)
    for d in range(0, 9):
        assert resolution_exact_check(field, d)


def test_exactness_other_primes():
    assert resolution_exact_check(FieldConfig(7, 1), 6)
    assert resolution_exact_check(FieldConfig(13, 1), 6)


def test_degree_bound_validation():
    with pytest.raises(ValueError):
        resolution_exact_check(FieldConfig(5, 1), -1)


def _reference_exact_check(field: FieldConfig, degree_bound: int) -> bool:
    """The node sequence checked in every degree 0..degree_bound, one by one.

    Builds its own slices and rows, so a fault in resolution's helpers
    shows up as a disagreement rather than in both checks at once.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")

    def basis(d):
        return [] if d < 0 else [(0, 0)] if d == 0 else [(d, 0), (0, d)]

    def times(mon, var):  # z or w times a basis monomial; None when z*w kills it
        ze, we = mon
        if var == "z":
            return None if we else (ze + 1, 0)
        return None if ze else (0, we + 1)

    def row(index, dz_mon, dw_mon):
        out = [0] * (2 * len(index))
        if dz_mon is not None:
            out[index[dz_mon]] = 1
        if dw_mon is not None:
            out[len(index) + index[dw_mon]] = 1
        return out

    p = field.p
    for m in range(degree_bound + 1):
        dom = basis(m - 1)
        mid = {mon: k for k, mon in enumerate(basis(m))}
        _, rel = row_reduce([row(mid, times(mu, "w"), times(mu, "z")) for mu in dom], p)
        first_rows = [row(mid, times(mon, "z"), times(mon, "w")) for mon in dom]
        if row_reduce(first_rows, p)[0] != len(dom):
            return False
        half = len(mid)
        if any(extend_basis(rel, r[half:] + r[:half], p) for r in first_rows):
            return False
        second_rows = [row(mid, None, mon) for mon in mid] + [row(mid, mon, None) for mon in mid]
        second_rank = sum(extend_basis(rel, r, p) for r in second_rows)
        if 2 * len(mid) - second_rank != len(dom):
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 97])
def test_check_agrees_with_every_degree_reference(p):
    field = FieldConfig(p, 1)
    for bound in range(13):
        assert resolution_exact_check(field, bound) == _reference_exact_check(field, bound)
    for check in (resolution_exact_check, _reference_exact_check):
        with pytest.raises(ValueError):
            check(field, -1)
