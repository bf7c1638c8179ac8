from __future__ import annotations

from hypothesis import given, settings, strategies as st

from spinalg._linalg import extend_basis, rank, row_reduce

P = 7


@st.composite
def matrices(draw):
    """Random matrices mod 7, up to 6 x 6, with entries drawn from -10..10."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-10, max_value=10)
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rank_equals_rank_of_transpose(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert rank(rows, P) == rank(transpose, P)


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_rank_ignores_appended_row_combination(rows, data):
    weights = data.draw(st.lists(st.integers(min_value=0, max_value=P - 1),
                                 min_size=len(rows), max_size=len(rows)))
    combo = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(len(rows[0]))]
    assert rank(rows + [combo], P) == rank(rows, P)


def test_row_reduce_returns_echelon_rows():
    r, rows = row_reduce([[0, 2, 4], [1, 1, 1], [1, 3, 5]], P)
    assert r == 2
    assert rows[0][0] != 0 and rows[1][0] == 0 and rows[1][1] != 0
    assert not any(rows[2])


@given(matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_extend_basis_adds_one_pivot_per_new_rank(rows, data):
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    prefix_rank, reduced = row_reduce(rows[:split], P)
    basis: dict[int, list[int]] = {}
    for row in reduced[:prefix_rank]:
        assert extend_basis(basis, row, P)
    added = 0
    for row in rows[split:]:
        before = list(basis.values())
        in_span = rank(before + [row], P) == rank(before, P)
        grew = extend_basis(basis, row, P)
        assert grew is not in_span
        added += grew
    assert added == rank(rows, P) - prefix_rank
    assert all(row[col] == 1 and not any(row[:col]) for col, row in basis.items())
