"""Prime coefficient fields carrying exact roots of unity.

All computations in this package run over F_p for a prime p chosen so that
p = 1 (mod r).  The multiplicative group of F_p is then cyclic of order
divisible by r, so every divisor e of r contributes a full group of e-th
roots of unity, represented exactly as integers mod p.
"""
from __future__ import annotations

from ._record import Interned

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest strong pseudoprime to all of _MR_BASES (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _MR_LIMIT.

    Larger n raise ValueError: no fixed set of bases is proven exact there.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot certify primality of {n}: moduli must be below {_MR_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def default_prime(r: int) -> int:
    """Smallest prime p with p = 1 (mod r)."""
    if r < 1:
        raise ValueError("level r must be a positive integer")
    if r == 1:
        return 2
    p = r + 1
    while not is_prime(p):
        p += r
    return p


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldConfig(Interned):
    """F_p together with the level r; requires p prime and p = 1 (mod r).  Interned."""

    __slots__ = _fields = ("p", "r")

    def __new__(cls, p: int, r: int):
        cls.__post_init__(p, r)
        return cls._intern(p, r)

    # own method, called once per construction: perfbench/tracing.py wraps it
    @staticmethod
    def __post_init__(p: int, r: int):
        if type(r) is not int or r < 1:
            raise ValueError("level r must be a positive integer")
        if type(p) is not int or not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p % r != 1 and r != 1:
            raise ValueError(f"need p = 1 (mod r); got p={p}, r={r}")

    @classmethod
    def for_level(cls, r: int, p: int | None = None) -> FieldConfig:
        """Field for level r, defaulting to the smallest admissible prime."""
        return cls(default_prime(r) if p is None else p, r)

    def unity_roots(self, e: int) -> list[int]:
        """All e-th roots of unity in F_p, ascending.  Requires e | r.

        zeta = g^((p - 1)/e) for the least g = 1, 2, .. with zeta^(e/q) != 1
        at every prime q | e, so zeta has order exactly e.  Only e is
        factored, never p - 1.
        """
        if e < 1 or self.r % e != 0:
            raise ValueError(f"order {e} does not divide the level r={self.r}")
        factors = _prime_factors(e)
        # e | p - 1, so a generator g of F_p^* passes and the loop returns
        for g in range(1, self.p):
            zeta = pow(g, (self.p - 1) // e, self.p)
            if all(pow(zeta, e // q, self.p) != 1 for q in factors):
                return sorted(pow(zeta, k, self.p) for k in range(e))
