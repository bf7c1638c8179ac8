from __future__ import annotations

from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from spinalg.field import FieldConfig
from spinalg.modules import check_well_defined, make_module
from spinalg.oracle import oracle_product_images, oracle_sym_power_images
from spinalg.products import (
    algebra_window,
    automorphisms,
    compatibility_check,
    dual_pairing,
    power_map,
    product_map,
    sym_power_map,
    tier_module,
)
from spinalg.ring import NodeRing


def ring(l: int, p: int = 97) -> NodeRing:
    return NodeRing(FieldConfig(p, 1), l)


def test_product_case_sum_below_l():
    # (1,3) x (2,2) at l = 4: indices add to 3 < 4
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    t = gm.target
    assert (t.i, t.j) == (3, 1)
    assert gm.images[(1, 1)] == t.generator(1)
    assert gm.images[(1, 2)] == r4.t() * t.generator(2)
    assert gm.images[(2, 1)] == r4.t(2) * t.generator(2)
    assert gm.images[(2, 2)] == r4.y() * t.generator(2)


def test_product_case_sum_equals_l():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 3, 1)
    gm = product_map(a, b)
    t = gm.target
    assert t.is_free
    s = t.generator(1)
    assert gm.images[(1, 1)] == r4.x() * s
    assert gm.images[(1, 2)] == r4.t() * s
    assert gm.images[(2, 1)] == r4.t(3) * s
    assert gm.images[(2, 2)] == r4.y() * s


def test_product_case_sum_above_l():
    r4 = ring(4)
    a, b = make_module(r4, 3, 1), make_module(r4, 2, 2)
    gm = product_map(a, b)
    t = gm.target
    assert (t.i, t.j) == (1, 3)
    assert gm.images[(1, 1)] == r4.x() * t.generator(1)
    assert gm.images[(1, 2)] == r4.t(2) * t.generator(1)
    assert gm.images[(2, 1)] == r4.t() * t.generator(1)
    assert gm.images[(2, 2)] == t.generator(2)


def test_product_with_free_factor():
    r4 = ring(4)
    a, free = make_module(r4, 1, 3), make_module(r4, 0, 0)
    gm = product_map(a, free)
    assert gm.target == a
    assert gm.images[(1, 1)] == a.generator(1)
    assert gm.images[(2, 1)] == a.generator(2)
    both_free = product_map(free, free)
    assert both_free.target.is_free
    assert list(both_free.images) == [(1, 1)]


def test_all_products_well_defined_small():
    for l in range(1, 7):
        r = ring(l)
        mods = [make_module(r, 0, 0)] + [make_module(r, i, l - i) for i in range(1, l)]
        for a in mods:
            for b in mods:
                assert check_well_defined(product_map(a, b)) is None


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
@example(40, 12)
@settings(max_examples=30, deadline=None)
def test_chart_rule_matches_oracle_beyond_suite_range(l, m):
    # the suites stop at l <= 12; every pair and m-th power at larger l
    rl = ring(l)
    mods = [make_module(rl, i, (l - i) % l) for i in range(l)]
    for a in mods:
        for b in mods:
            gm = product_map(a, b)
            assert gm.images == oracle_product_images(a, b, gm.target)
        gm = sym_power_map(a, m)
        assert gm.images == oracle_sym_power_images(a, m, gm.target)


def test_products_commute():
    r6 = ring(6)
    a, b = make_module(r6, 1, 5), make_module(r6, 4, 2)
    ab, ba = product_map(a, b), product_map(b, a)
    for (ka, kb), img in ab.images.items():
        assert ba.images[(kb, ka)] == img


def test_sym_power_frozen_images():
    # square of M(1,1) at l = 2 lands in the free tier as (x, t, y)
    r2 = ring(2)
    m11 = make_module(r2, 1, 1)
    gm = sym_power_map(m11, 2)
    free = gm.target
    assert free.is_free
    assert gm.images[0] == r2.x() * free.generator(1)
    assert gm.images[1] == r2.t() * free.generator(1)
    assert gm.images[2] == r2.y() * free.generator(1)
    # cube of M(1,2) at l = 3 lands free as (x, t^2, t*y, y^2)
    r3 = ring(3)
    m12 = make_module(r3, 1, 2)
    gm3 = sym_power_map(m12, 3)
    s = gm3.target.generator(1)
    assert gm3.images[0] == r3.x() * s
    assert gm3.images[1] == r3.t(2) * s
    assert gm3.images[2] == r3.t() * r3.y() * s
    assert gm3.images[3] == r3.y(2) * s


def test_sym_power_intermediate_tier():
    # square of M(1,3) at l = 4 lands on M(2,2), not the free tier
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    gm = sym_power_map(m13, 2)
    t = gm.target
    assert (t.i, t.j) == (2, 2)
    assert gm.images[0] == t.generator(1)
    assert gm.images[1] == r4.t() * t.generator(2)
    assert gm.images[2] == r4.y() * t.generator(2)
    with pytest.raises(ValueError):
        sym_power_map(m13, 0)


def test_grade():
    for l in range(1, 7):
        rl = ring(l)
        for i in range(l):
            pres = make_module(rl, i, (l - i) % l)
            assert pres.grade(0).is_free
            assert pres.grade(1) == pres
            assert pres.grade(-1) == make_module(rl, pres.j, pres.i)
            for n in range(-2 * l, 2 * l):
                assert pres.grade(n + l) == pres.grade(n)
                assert pres.grade(n) == make_module(rl, n * pres.i % l, n * pres.j % l)
                if pres.is_free:
                    assert pres.grade(n).is_free


def test_tier_module_and_power_map():
    r2 = ring(2, p=13)
    assert tier_module(r2, 1, 1, 12, 12) == make_module(r2, 1, 1)
    assert tier_module(r2, 1, 1, 12, 6).is_free
    gm = power_map(r2, 12, 12, 6, 1, 1)
    assert gm.source.power == 2
    assert gm.target.is_free
    with pytest.raises(ValueError):
        power_map(r2, 12, 8, 4, 1, 1)  # 8 does not divide 12


def test_power_map_lands_on_tier_e():
    maps = 0
    for r in range(1, 13):
        divisors = [d for d in range(1, r + 1) if r % d == 0]
        for l in divisors:
            rl = ring(l)
            for i in range(l):
                if i and gcd(i, l) != 1:
                    continue
                j = (l - i) % l
                for d in divisors:
                    for e in (e for e in divisors if d % e == 0):
                        gm = power_map(rl, r, d, e, i, j)
                        assert gm.target == tier_module(rl, i, j, r, e)
                        maps += 1
    assert maps == 816


def test_power_maps_compose():
    r4 = ring(4, p=13)
    for d2, d1, d0 in ((4, 2, 1), (4, 4, 2), (4, 2, 2), (12, 6, 3), (12, 4, 2)):
        r = 12 if d2 == 12 else 4
        ring_l = ring(2, p=13) if r == 12 else r4
        assert compatibility_check(ring_l, r, d2, d1, d0, 1, ring_l.l - 1)


def test_algebra_window_grades():
    r3 = ring(3)
    win = algebra_window(r3, 1, 2, 3, 3)
    assert win.grades[0].is_free
    assert (win.grades[1].i, win.grades[1].j) == (1, 2)
    assert (win.grades[-1].i, win.grades[-1].j) == (2, 1)
    assert win.grades[3].is_free
    gm = win.products[(1, 1)]
    assert (gm.target.i, gm.target.j) == (2, 1)
    with pytest.raises(KeyError):
        win.grades[4]


def test_dual_pairing_matrix():
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    gm = dual_pairing(m13)
    assert gm.target.is_free
    s = gm.target.generator(1)
    assert gm.images[(1, 1)] == r4.x() * s
    assert gm.images[(1, 2)] == r4.t(1) * s
    assert gm.images[(2, 1)] == r4.t(3) * s
    assert gm.images[(2, 2)] == r4.y() * s


def test_automorphism_orders():
    field = FieldConfig.for_level(4)  # p = 5
    r4 = NodeRing(field, 4)
    m13 = make_module(r4, 1, 3)
    generic = automorphisms(m13, 2)
    assert generic.order == 2 and generic.diagonal
    smoothing = automorphisms(m13, 2, 1)
    assert smoothing.order == 2
    nodal_disc = automorphisms(m13, 2, 0, disconnected=True)
    assert nodal_disc.order == 4 and not nodal_disc.diagonal
    assert automorphisms(m13, 2, 5, disconnected=True) == nodal_disc  # t = p is the node
    nodal_conn = automorphisms(m13, 2, 0, disconnected=False)
    assert nodal_conn.order == 2
    free = make_module(r4, 0, 0)
    free_disc = automorphisms(free, 2, 0, disconnected=True)
    assert free_disc.order == 2


def test_automorphism_pairs_are_roots():
    field = FieldConfig.for_level(6)  # p = 7
    r6 = NodeRing(field, 6)
    m15 = make_module(r6, 1, 5)
    group = automorphisms(m15, 3, 0, disconnected=True)
    assert group.order == 9
    for h, s in group.pairs:
        assert pow(h, 3, 7) == 1 and pow(s, 3, 7) == 1


def _tier_items(max_r: int):
    """Every (r, l, i, j, d, e) with l | r, a top pair (i, j) over l and e | d | r."""
    for r in range(1, max_r + 1):
        divisors = [d for d in range(1, r + 1) if r % d == 0]
        for l in divisors:
            for i in range(l):
                if i and gcd(i, l) != 1:
                    continue
                for d in divisors:
                    for e in (e for e in divisors if d % e == 0):
                        yield r, l, i, (l - i) % l, d, e


def test_power_maps_are_cached_across_separately_built_rings():
    # ring(l) builds a new FieldConfig on every call; equal values give one map
    for r, l, i, j, d, e in _tier_items(6):
        gm = power_map(ring(l), r, d, e, i, j)
        assert power_map(ring(l), r, d, e, i, j) is gm
        assert gm.target.ring is ring(l)
        pres = tier_module(ring(l), i, j, r, d)
        sym = sym_power_map(pres, d // e)
        assert sym_power_map(tier_module(ring(l), i, j, r, d), d // e) is sym
        fresh = sym_power_map.__wrapped__(pres, d // e)
        assert fresh is not sym and fresh.images == sym.images == gm.images
    assert power_map(ring(2, p=13), 4, 4, 2, 1, 1) is not power_map(ring(2), 4, 4, 2, 1, 1)


def test_product_maps_are_cached_across_separately_built_rings():
    for l in range(1, 7):
        for i in range(l):
            for i2 in range(l):
                a = make_module(ring(l), i, (l - i) % l)
                b = make_module(ring(l), i2, (l - i2) % l)
                pm = product_map(a, b)
                assert product_map(make_module(ring(l), a.i, a.j), make_module(ring(l), b.i, b.j)) is pm
                fresh = product_map.__wrapped__(a, b)
                assert fresh is not pm and fresh.images == pm.images
