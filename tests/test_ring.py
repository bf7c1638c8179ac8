from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from spinalg.field import FieldConfig
from spinalg.oracle import SpinChart
from spinalg.ring import LaurentRing, NodeRing


def ring(l: int, p: int = 97) -> NodeRing:
    return NodeRing(FieldConfig(p, 1), l)


def test_node_relation_rewrites():
    r2 = ring(2)
    assert r2.x() * r2.y() == r2.t() ** 2
    r3 = ring(3)
    assert r3.x() * r3.y() * r3.y() == r3.t() ** 3 * r3.y()


def test_square_of_sum():
    r2 = ring(2)
    x, y, t = r2.x(), r2.y(), r2.t()
    assert (x + y) ** 2 == x * x + 2 * t * t + y * y


def test_mixed_monomials_never_survive():
    r4 = ring(4)
    a = r4.monomial(x=3, y=2, t=1)
    ((xe, ye, te),) = [m for m, _ in a.sorted_terms()]
    assert min(xe, ye) == 0
    assert (xe, ye, te) == (1, 0, 9)


def test_specialize_frozen_example():
    r2 = NodeRing(FieldConfig(5, 1), 2)
    a = r2.x() * r2.y()  # t^2
    out = a.specialize(3)
    assert out == r2.const(9 % 5)
    assert out == r2.const(4)


def test_specialize_at_zero_kills_t():
    r3 = ring(3)
    a = r3.t() + r3.x()
    assert a.specialize(0) == r3.x()


def test_localize_frozen_example():
    r2 = ring(2)
    loc = (r2.y() ** 2).localize("x")
    ((vexp, texp),) = loc.terms
    assert (vexp, texp) == (-2, 4)
    with pytest.raises(ValueError, match="^localization variable must be 'x' or 'y'$"):
        r2.y().localize("q")


def test_localize_unit_detection():
    r3 = ring(3)
    coeff, vexp = (r3.monomial(coeff=2, x=5)).localize("x").as_unit_monomial()
    assert (coeff, vexp) == (2, 5)
    assert (r3.x() + r3.t()).localize("x").as_unit_monomial() is None


def test_zero_and_equality():
    r2 = ring(2)
    assert (r2.x() - r2.x()).is_zero
    assert r2.zero() == r2.from_terms([])
    assert hash(r2.x() + r2.y()) == hash(r2.y() + r2.x())
    assert r2.const(3) == 3 and 3 in {r2.const(3)} and 0 in {r2.zero()}
    lr = LaurentRing(r2.field, "x")
    assert lr.const(3) == 3 and 3 in {lr.const(3)} and 0 in {lr.zero()}


coeffs = st.integers(min_value=-10, max_value=10)
exps = st.integers(min_value=0, max_value=4)
monos = st.tuples(exps, exps, exps, coeffs)
polys = st.lists(monos, min_size=0, max_size=5)


def build(r: NodeRing, data):
    return r.from_terms([((xe, ye, te), c) for xe, ye, te, c in data])


@given(polys, polys, polys, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_ring_laws_random(da, db, dc, l):
    r = ring(l)
    a, b, c = build(r, da), build(r, db), build(r, dc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_specialize_respects_products(da, db, l, c):
    # products of specialized representatives may recreate t through the
    # node rewrite, so compare after one more evaluation pass
    r = ring(l, p=5)
    a, b = build(r, da), build(r, db)
    lhs = (a * b).specialize(c)
    rhs = (a.specialize(c) * b.specialize(c)).specialize(c)
    assert lhs == rhs


@given(polys, polys, st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_localize_is_multiplicative(da, db, l):
    r = ring(l)
    a, b = build(r, da), build(r, db)
    for var in ("x", "y"):
        assert (a * b).localize(var) == a.localize(var) * b.localize(var)


def test_ring_validation():
    with pytest.raises(ValueError):
        NodeRing(FieldConfig(5, 1), 0)
    r2 = ring(2)
    with pytest.raises(ValueError):
        r2.monomial(x=-1)


def test_node_rings_are_interned_by_field_and_l():
    r = NodeRing(FieldConfig(7, 1), 2)
    assert NodeRing(FieldConfig(7, 1), 2) is r
    assert NodeRing(field=FieldConfig(7, 1), l=2) is r
    assert copy.copy(r) is r and copy.deepcopy(r) is r and pickle.loads(pickle.dumps(r)) is r
    others = [NodeRing(FieldConfig(7, 1), 3), NodeRing(FieldConfig(5, 1), 2),
              NodeRing(FieldConfig(7, 2), 2)]
    for other in others:
        assert other is not r and other != r
    assert len({id(o) for o in others}) == len(others)


@pytest.mark.parametrize("l", [0, -1, 1.5, "2", None, True])
def test_invalid_l_raises_and_is_not_interned(l):
    before = dict(NodeRing._table)
    with pytest.raises(ValueError, match="node parameter l must be a positive integer"):
        NodeRing(FieldConfig(5, 1), l)
    assert NodeRing._table == before


def test_operands_from_equal_rings_ints_and_foreign_rings():
    # the same-ring fast path must not change which operands combine
    field = FieldConfig(7, 1)
    r, twin = NodeRing(field, 2), NodeRing(FieldConfig(7, 1), 2)
    assert r is twin
    x, y = r.x(), twin.y()
    assert x + y == r.x() + r.y() and y + x == r.x() + r.y()
    assert x * y == r.t(2) and y * x == r.t(2)
    # Laurent rings are interned too: an equal ring built apart is the same ring
    lr, ltwin = LaurentRing(field, "x"), LaurentRing(FieldConfig(7, 1), "x")
    assert lr is ltwin
    v, t = lr.monomial(1, 1), ltwin.monomial(1, 0, 1)
    assert v + t == lr.monomial(1, 1) + lr.monomial(1, 0, 1) == t + v
    assert v * t == lr.monomial(1, 1, 1) == t * v
    assert v - t == -(t - v) and (v - t).ring is lr and (t - v).ring is ltwin
    assert 3 * x == r.monomial(3, x=1) == x * 3
    assert x + 3 == r.x() + r.const(3) == 3 + x
    assert 3 - x == r.const(3) - r.x() and (3 - x) + x == 3
    foreign = [NodeRing(field, 3).x(), LaurentRing(field, "x").monomial(1, 1),
               SpinChart(field, 2, 1).monomial(z=1)]
    for other in foreign:
        for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="elements live in different rings"):
                op(x, other)
            with pytest.raises(ValueError, match="elements live in different rings"):
                op(other, x)


# -- products by the unit ------------------------------------------------------

# one ring of each term-arithmetic kind, and a rule drawing its exponent keys
KINDS = {
    "node": (lambda p, l: NodeRing(FieldConfig(p, 1), l),
             st.tuples(exps, exps, exps)),
    "laurent": (lambda p, l: LaurentRing(FieldConfig(p, 1), "x" if l % 2 else "y"),
                st.tuples(st.integers(min_value=-4, max_value=4), exps)),
    "chart": (lambda p, l: SpinChart(FieldConfig(p, 1), l, 1),
              st.tuples(exps, exps, exps, st.integers(min_value=-3, max_value=3))),
}


def _reference_mul(a, b):
    """The term loop of TermElement.__mul__ run on every pair, without the unit rule."""
    ring = a.ring
    p = ring.field.p
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            key = ring._mul_keys(k1, k2)
            c = (terms.get(key, 0) + c1 * c2) % p
            if c:
                terms[key] = c
            else:
                del terms[key]
    return terms


def _sample(kind: str, p: int = 97, l: int = 3):
    """A ring of the kind and three elements other than 1: zero, 5, and 2 + 3 * (first variable)."""
    r = KINDS[kind][0](p, l)
    var = (1,) + r._unit[1:]
    return r, [r.zero(), r.const(5), r.from_terms([(r._unit, 2), (var, 3)])]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_product_by_one_returns_the_other_operand(kind):
    r, elements = _sample(kind)
    one = r.one()
    for e in elements:
        assert one * e is e and e * one is e
        assert e * 1 is e and 1 * e is e
        assert r.const(98) * e is e  # 98 = 1 mod 97
    x = elements[-1]
    assert (x * r.const(-1)).terms == {k: 97 - c for k, c in x.terms.items()}
    assert x ** 1 is x and (x ** 0).terms == one.terms


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_unit_of_another_ring_still_raises(kind):
    make = KINDS[kind][0]
    r, elements = _sample(kind)
    others = [make(5, 3).one(), make(97, 4).one()]  # another p; another l (Laurent: variable)
    for other in others:
        assert other.ring is not r
        for e in elements:
            for a, b in ((e, other), (other, e)):
                with pytest.raises(ValueError, match="^elements live in different rings$"):
                    a * b


@st.composite
def ring_and_pair(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    make, keys = KINDS[kind]
    p = draw(st.sampled_from([2, 3, 5, 97]))
    r = make(p, draw(st.integers(min_value=1, max_value=4)))
    special = st.sampled_from([r.zero(), r.one(), r.const(p + 1), r.const(p - 1)])
    drawn = st.lists(st.tuples(keys, coeffs), max_size=4).map(r.from_terms)
    return r, draw(st.one_of(special, drawn)), draw(st.one_of(special, drawn))


@given(ring_and_pair())
@settings(max_examples=300, deadline=None)
def test_mul_matches_the_term_loop(data):
    r, a, b = data
    for lhs, rhs in ((a, b), (b, a)):
        out = lhs * rhs
        assert type(out) is r._element and out.ring is r
        assert out.terms == _reference_mul(lhs, rhs)
        if rhs.terms == {r._unit: 1}:
            assert out is lhs
        elif lhs.terms == {r._unit: 1}:
            assert out is rhs


@pytest.mark.parametrize("n", [True, False, 2.0, 1.0, -1, "2", None])
def test_power_refuses_a_non_int_exponent(n):
    x = ring(2).x()
    with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
        x ** n
    with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
        SpinChart(FieldConfig(97, 1), 2, 1).monomial(z=1) ** n
