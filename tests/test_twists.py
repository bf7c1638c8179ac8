from __future__ import annotations

import copy
import pickle

import pytest

from spinalg.field import FieldConfig
from spinalg.modules import make_module
from spinalg.products import tier_module
from spinalg.ring import NodeRing
from spinalg.twists import TwistData, index_from_twist


def test_index_from_twist_zero():
    d = index_from_twist(0, 6)
    assert (d.l, d.a, d.b) == (1, 0, 0)


def test_index_from_twist_cases():
    d = index_from_twist(2, 6)
    assert (d.k, d.l, d.a, d.b) == (2, 3, 1, 2)
    d = index_from_twist(3, 6)
    assert (d.l, d.a, d.b) == (2, 1, 1)
    d = index_from_twist(5, 6)
    assert (d.l, d.a, d.b) == (6, 5, 1)
    with pytest.raises(ValueError):
        index_from_twist(6, 6)
    with pytest.raises(ValueError):
        index_from_twist(-1, 6)


@pytest.mark.parametrize("k, r, message", [
    (1, 0, "level r must be a positive integer"),
    (1, True, "level r must be a positive integer"),
    (1, 3.0, "level r must be a positive integer"),
    (3, 3, "twist must be an integer with 0 <= k < r; got k=3"),
    (-1, 3, "twist must be an integer with 0 <= k < r; got k=-1"),
    (True, 3, "twist must be an integer with 0 <= k < r; got k=True"),
    (1.0, 3, "twist must be an integer with 0 <= k < r; got k=1.0"),
])
def test_index_from_twist_refuses_a_non_integer_or_out_of_range_argument(k, r, message):
    with pytest.raises(ValueError) as info:
        index_from_twist(k, r)
    assert str(info.value) == message


def test_twist_data_roundtrip():
    # a/l in lowest terms and k = a * (r/l) recover each other
    for r in (2, 3, 4, 6, 12):
        for k in range(r):
            d = index_from_twist(k, r)
            assert d.a * (r // d.l) == k
            assert (d.a + d.b) % d.l == 0


@pytest.mark.parametrize("fields, message", [
    ((True, 3, 3, 1, 2), "twist fields must be integers; got TwistData(k=True, r=3, l=3, a=1, b=2)"),
    ((1.0, 3.0, 3, 1, 2), "twist fields must be integers; got TwistData(k=1.0, r=3.0, l=3, a=1, b=2)"),
    ((1, 3, 7, 0, -5), "(l, a, b) = (7, 0, -5) is not derived from k=1, r=3"),
    ((0, 3, 1, 0, 1), "(l, a, b) = (1, 0, 1) is not derived from k=0, r=3"),
    ((2, 6, 3, 1, True), "twist fields must be integers; got TwistData(k=2, r=6, l=3, a=1, b=True)"),
])
def test_twist_data_refuses_what_index_from_twist_refuses(fields, message):
    with pytest.raises(ValueError) as info:
        TwistData(*fields)
    assert str(info.value) == message


def test_twist_data_copies_and_pickles_through_its_checks():
    for r in range(1, 13):
        for k in range(r):
            d = index_from_twist(k, r)
            for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
                assert twin == d and twin is not d and str(twin) == str(d)


def test_twist_display():
    assert str(index_from_twist(2, 6)) == "2(3,1,2)"
    assert str(index_from_twist(0, 6)) == "0(1,0,0)"


def test_tier_twists():
    # tier d of a node with top twists (i, j) carries M(i*r/d mod l, j*r/d mod l)
    r4 = NodeRing(FieldConfig(97, 1), 4)
    assert tier_module(r4, 1, 3, 4, 4) == make_module(r4, 1, 3)
    assert tier_module(r4, 1, 3, 4, 2) == make_module(r4, 2, 2)
    assert tier_module(r4, 1, 3, 4, 1).is_free
    r2 = NodeRing(FieldConfig(13, 1), 2)
    assert tier_module(r2, 1, 1, 12, 12) == make_module(r2, 1, 1)
    assert tier_module(r2, 1, 1, 12, 6).is_free
    with pytest.raises(ValueError):
        tier_module(r4, 1, 3, 4, 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        tier_module(r4, 1, 3, 6, 6)  # l = 4 does not divide 6
