from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from spinalg.field import FieldConfig
from spinalg.modules import make_module
from spinalg.oracle import (
    SpinChart,
    lift_element,
    lower_element,
    oracle_product_images,
    oracle_sym_power_images,
    symbol_exponent,
)
from spinalg.products import product_map, sym_power_map
from spinalg.ring import NodeRing


def chart(l: int, b: int = 1, p: int = 97) -> SpinChart:
    return SpinChart(FieldConfig(p, 1), l, b)


def test_chart_validation():
    chart(4, 1)
    chart(4, 3)
    with pytest.raises(ValueError):
        chart(4, 2)  # gcd(2, 4) != 1


def test_character():
    c = chart(4)
    assert c.character((1, 0, 0, 0)) == 1
    assert c.character((0, 1, 0, 0)) == 3
    assert c.character((0, 0, 5, 0)) == 0
    assert c.character((0, 0, 0, -1)) == 3


def test_cover_relation():
    c = chart(3)
    z, w, t = c.monomial(z=1), c.monomial(w=1), c.monomial(t=1)
    assert z * w == t
    assert z * z * w == t * z
    assert (z + w) ** 2 == z ** 2 + 2 * t + w ** 2


def test_invariant_part():
    c = chart(2)
    mixed = c.monomial(z=2) + c.monomial(z=1) + c.monomial(s=2) + c.monomial(z=1, s=1)
    inv = mixed.invariant_part()
    assert inv == c.monomial(z=2) + c.monomial(s=2) + c.monomial(z=1, s=1)


def test_chart_constants_hash_like_ints():
    c = chart(3)
    assert c.const(3) == 3 and 3 in {c.const(3)} and 0 in {c.zero()}


up_coeffs = st.integers(min_value=-10, max_value=10)
up_exps = st.integers(min_value=0, max_value=4)
up_monos = st.tuples(up_exps, up_exps, up_exps, st.integers(min_value=-3, max_value=3), up_coeffs)
up_polys = st.lists(up_monos, min_size=0, max_size=5)


def build(c: SpinChart, data):
    return c.from_terms([((ze, we, te, se), k) for ze, we, te, se, k in data])


@given(up_polys, up_polys, up_polys, st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_chart_ring_laws_random(da, db, dc, l, n):
    c = chart(l)
    a, b, d = build(c, da), build(c, db), build(c, dc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + d == a + (b + d)
    assert (a * b) * d == a * (b * d)
    assert a * (b + d) == a * b + a * d
    assert a - a == c.zero()
    power = c.const(1)
    for _ in range(n):
        power = power * a
    assert a ** n == power


def test_symbol_exponent():
    r4 = NodeRing(FieldConfig(97, 1), 4)
    c = chart(4)
    m13 = make_module(r4, 1, 3)
    s = symbol_exponent(c, m13)
    assert (c.b * s - m13.j) % 4 == 0
    assert c.character((m13.i, 0, 0, s)) == 0  # z^i S^s invariant
    assert c.character((0, m13.j, 0, s)) == 0  # w^j S^s invariant
    free = make_module(r4, 0, 0)
    assert symbol_exponent(c, free) == 0


def test_lift_lower_roundtrip():
    r4 = NodeRing(FieldConfig(97, 1), 4)
    c = chart(4)
    m13 = make_module(r4, 1, 3)
    s = symbol_exponent(c, m13)
    elem = m13.element(r4.x() + r4.t(2), r4.monomial(coeff=3, y=1))
    up = lift_element(c, elem, s)
    assert up.invariant_part() == up  # module elements lift invariantly
    assert lower_element(c, up, m13, s) == elem


def test_lower_rejects_noninvariant():
    r4 = NodeRing(FieldConfig(97, 1), 4)
    c = chart(4)
    m13 = make_module(r4, 1, 3)
    s = symbol_exponent(c, m13)
    with pytest.raises(ValueError):
        lower_element(c, c.monomial(z=2, s=s), m13, s)


def test_lower_rejects_wrong_symbol_power():
    r4 = NodeRing(FieldConfig(97, 1), 4)
    c = chart(4)
    m13 = make_module(r4, 1, 3)
    s = symbol_exponent(c, m13)
    good = c.monomial(z=1, s=s)
    assert lower_element(c, good, m13, s) == m13.generator(1)
    with pytest.raises(ValueError):
        lower_element(c, good, m13, s + 1)


def test_oracle_matches_product_map():
    r4 = NodeRing(FieldConfig(97, 1), 4)
    mods = [make_module(r4, 0, 0)] + [make_module(r4, i, 4 - i) for i in range(1, 4)]
    for a in mods:
        for b in mods:
            gm = product_map(a, b)
            assert oracle_product_images(a, b, gm.target) == gm.images


def test_oracle_matches_sym_powers():
    r3 = NodeRing(FieldConfig(97, 1), 3)
    m12 = make_module(r3, 1, 2)
    for m in (1, 2, 3, 4):
        gm = sym_power_map(m12, m)
        assert oracle_sym_power_images(m12, m, gm.target) == gm.images


def test_oracle_nontrivial_character():
    # same products recomputed on a chart with b = 3 instead of 1
    r4 = NodeRing(FieldConfig(97, 1), 4)
    c = chart(4, b=3)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    sa, sb = symbol_exponent(c, a), symbol_exponent(c, b)
    la = lift_element(c, a.generator(1), sa)
    lb = lift_element(c, b.generator(2), sb)
    assert lower_element(c, la * lb, gm.target, sa + sb) == gm.images[(1, 2)]
