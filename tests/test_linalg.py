from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from spinalg._linalg import extend_basis, row_reduce

P = 7


def _reference_rank(rows: list[list[int]], p: int) -> int:
    """Rank mod p by column-major forward elimination, independent of _linalg."""
    rows = [[c % p for c in row] for row in rows if any(c % p for c in row)]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
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
    return r


@st.composite
def matrices(draw, bound: int = 10):
    """Random matrices mod 7, up to 6 x 6, with entries drawn from -bound..bound."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-bound, max_value=bound)
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rank_equals_rank_of_transpose(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert _reference_rank(rows, P) == _reference_rank(transpose, P)


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_rank_ignores_appended_row_combination(rows, data):
    weights = data.draw(st.lists(st.integers(min_value=0, max_value=P - 1),
                                 min_size=len(rows), max_size=len(rows)))
    combo = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(len(rows[0]))]
    assert _reference_rank(rows + [combo], P) == _reference_rank(rows, P)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_row_reduce_rank_matches_reference(rows):
    assert row_reduce(rows, P)[0] == _reference_rank(rows, P)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_pivots_from_a_column_on_count_the_span_zero_before_it(rows):
    """Pivots at columns >= c number dim(span(rows) & span(e_c..e_{N-1})).

    That dimension is rank(rows) + (N - c) - rank(rows + e_c..e_{N-1}).
    cokernel_length reads each degree's cokernel count off this identity.
    """
    n = len(rows[0])
    rank = _reference_rank(rows, P)
    _, pivots = row_reduce(rows, P)
    for c in range(n + 1):
        units = [[int(k == j) for k in range(n)] for j in range(c, n)]
        assert sum(col >= c for col in pivots) == rank + (n - c) - _reference_rank(rows + units, P)


def test_row_reduce_returns_echelon_rows():
    r, pivots = row_reduce([[0, 2, 4], [1, 1, 1], [1, 3, 5]], P)
    assert r == 2
    assert sorted(pivots) == [0, 1]
    assert all(row[col] == 1 and not any(row[:col]) for col, row in pivots.items())


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_extend_basis_adds_one_pivot_per_new_rank(rows, data):
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    prefix_rank, basis = row_reduce(rows[:split], P)
    added = 0
    for row in rows[split:]:
        before = list(basis.values())
        in_span = _reference_rank(before + [row], P) == _reference_rank(before, P)
        grew = extend_basis(basis, row, P)
        assert grew is not in_span
        added += grew
    assert added == _reference_rank(rows, P) - prefix_rank
    assert all(row[col] == 1 and not any(row[:col]) for col, row in basis.items())


@given(matrices(bound=3 * P))
@settings(max_examples=300, deadline=None)
def test_entries_reduced_as_read_give_the_pivots_of_rows_reduced_first(rows):
    copies = [list(row) for row in rows]
    reduced = [[c % P for c in row] for row in rows]
    assert row_reduce(rows, P) == row_reduce(reduced, P)
    assert rows == copies  # the caller's rows are left as they were
    for col, prow in row_reduce(rows, P)[1].items():
        assert all(0 <= c < P for c in prow) and prow[col] == 1 and not any(prow[:col])


@pytest.mark.parametrize("rows, message", [
    ([[1, 2, 3], [1, 2]], "row of width 2 among rows of width 3"),
    ([[1, 2], [1, 2, 3]], "row of width 3 among rows of width 2"),
    ([[0, 0, 0], [1, 2]], "row of width 2 among rows of width 3"),
])
def test_row_reduce_refuses_rows_of_mismatched_width(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        row_reduce(rows, 5)


@pytest.mark.parametrize("row, message", [
    ([1, 2], "row of width 2 against a basis of width 3"),  # would eliminate at column 0
    ([0, 1, 2, 3], "row of width 4 against a basis of width 3"),  # would make a pivot
    ([0, 0], "row of width 2 against a basis of width 3"),  # would be called in the span
])
def test_extend_basis_refuses_a_row_of_another_width(row, message):
    basis = row_reduce([[1, 2, 3]], 5)[1]
    with pytest.raises(ValueError, match=re.escape(message)):
        extend_basis(basis, row, 5)
    assert basis == {0: [1, 2, 3]}
