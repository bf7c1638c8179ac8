from __future__ import annotations

import pytest

from spinalg.field import FieldConfig, default_prime, is_prime


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number


# Strong pseudoprime to every prime base 2..37 (Sorenson-Webster, Math. Comp. 2017).
PSI_12 = 318665857834031151167461
# Smallest strong pseudoprime to every prime base 2..41; is_prime refuses n >= PSI_13.
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_twelve_base_pseudoprime():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError):
        FieldConfig(PSI_12, 2)


def test_is_prime_bound():
    assert is_prime(PSI_13 - 168)  # a prime just below the bound
    assert not is_prime(PSI_13 - 1)
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="cannot certify"):
            is_prime(n)


def test_default_prime_is_one_mod_r():
    assert default_prime(1) == 2
    assert default_prime(2) == 3
    assert default_prime(3) == 7
    assert default_prime(4) == 5
    assert default_prime(6) == 7
    assert default_prime(12) == 13
    for r in range(1, 30):
        p = default_prime(r)
        assert is_prime(p) and p % r == 1 % r


def test_field_config_validation():
    FieldConfig(7, 3)
    with pytest.raises(ValueError):
        FieldConfig(8, 1)  # not prime
    with pytest.raises(ValueError):
        FieldConfig(5, 3)  # 5 != 1 mod 3


def test_for_level_picks_default():
    f = FieldConfig.for_level(4)
    assert (f.p, f.r) == (5, 4)
    g = FieldConfig.for_level(4, 13)
    assert g.p == 13


def test_reduce_and_inv():
    f = FieldConfig(7, 3)
    assert f.reduce(-1) == 6
    assert f.reduce(10) == 3
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_unity_roots_frozen():
    f5 = FieldConfig(5, 4)
    assert f5.unity_roots(2) == [1, 4]
    assert f5.unity_roots(4) == [1, 2, 3, 4]
    f7 = FieldConfig(7, 3)
    assert f7.unity_roots(3) == [1, 2, 4]
    assert f7.unity_roots(1) == [1]
    with pytest.raises(ValueError):
        f7.unity_roots(2)  # 2 does not divide r=3


def test_unity_roots_are_roots():
    f = FieldConfig(13, 12)
    for e in (1, 2, 3, 4, 6, 12):
        roots = f.unity_roots(e)
        assert len(roots) == e
        for z in roots:
            assert pow(z, e, 13) == 1
