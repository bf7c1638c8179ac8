from __future__ import annotations

import pytest

import spinalg.field
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
    with pytest.raises(ValueError, match="level r must be a positive integer"):
        FieldConfig(5, True)  # a bool is no level, though True == 1


def test_field_config_checks_a_new_field_once_and_refuses_bad_arguments_after_a_hit(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(spinalg.field, "is_prime", counted)
    FieldConfig(10007, 1), FieldConfig(97, 1)  # stored now, unless an earlier test stored them
    calls.clear()
    assert FieldConfig(10007, 1) is FieldConfig(10007, 1)
    assert FieldConfig(97, 1) is FieldConfig.for_level(1, 97)
    assert calls == []  # a table hit runs no primality test
    # True and 97.0 hash like 1 and 97, so they would find the stored records
    for p, r, message in ((97, True, "level r must be a positive integer"),
                          (97, 1.0, "level r must be a positive integer"),
                          (97.0, 1, "97.0 is not prime"),
                          (True, 1, "True is not prime"),
                          (10007.0, 1, "10007.0 is not prime"),
                          (91, 1, "91 is not prime")):
        with pytest.raises(ValueError, match=message):
            FieldConfig(p, r)


def test_for_level_picks_default():
    f = FieldConfig.for_level(4)
    assert (f.p, f.r) == (5, 4)
    g = FieldConfig.for_level(4, 13)
    assert g.p == 13


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


def test_unity_roots_over_a_safe_prime_factor_only_the_order():
    # p - 1 = 2q with q prime: finding the roots must not factor p - 1
    p = 2000000000000001683
    assert is_prime(p)
    assert is_prime((p - 1) // 2)
    assert FieldConfig(p, 2).unity_roots(2) == [1, p - 1]
