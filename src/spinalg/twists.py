"""Twist arithmetic at nodes and markings.

A node twist k in {0, .., r-1} determines the local index l = r/gcd(k, r)
and the balanced exponent pair (a, b) = (k/gcd(k, r), l - a), which in
turn name the node-ring module M(a, b) carried by the root bundle on
each branch.
"""
from __future__ import annotations

from math import gcd

from ._record import Record

_set = object.__setattr__


class TwistData(Record):
    """Node twist k at level r with its local exponents (l, a, b), checked to be those derived from (k, r)."""

    __slots__ = _fields = ("k", "r", "l", "a", "b")

    def __init__(self, k: int, r: int, l: int, a: int, b: int):
        self._fill(k, r, l, a, b)
        if not (type(k) is type(r) is type(l) is type(a) is type(b) is int):  # refuses bool and float too
            raise ValueError(f"twist fields must be integers; got {self!r}")
        if not (0 <= k < r):
            raise ValueError(f"twist must satisfy 0 <= k < r; got k={k}, r={r}")
        if (l, a, b) != _exponents(k, r):
            raise ValueError(f"(l, a, b) = ({l}, {a}, {b}) is not derived from k={k}, r={r}")

    def _fill(self, k: int, r: int, l: int, a: int, b: int) -> None:
        _set(self, "k", k)
        _set(self, "r", r)
        _set(self, "l", l)
        _set(self, "a", a)
        _set(self, "b", b)

    def __str__(self):
        return f"{self.k}({self.l},{self.a},{self.b})"


def index_from_twist(k: int, r: int) -> TwistData:
    """Local index and exponent pair attached to a node twist.

    k = 0 is the untwisted (free) case: l = 1 and a = b = 0.  Otherwise
    a and b are positive, coprime to l, and sum to l.
    """
    if type(r) is not int or r < 1:  # bool and float are refused too
        raise ValueError("level r must be a positive integer")
    if type(k) is not int or not (0 <= k < r):
        raise ValueError(f"twist must be an integer with 0 <= k < r; got k={k!r}")
    d = object.__new__(TwistData)  # (l, a, b) are derived here once; __init__ would derive them again
    d._fill(k, r, *_exponents(k, r))
    return d


def _exponents(k: int, r: int) -> tuple[int, int, int]:
    """(l, a, b) = (r, k, r - k) / gcd(k, r) for 0 < k < r, and (1, 0, 0) for k = 0."""
    if k == 0:
        return 1, 0, 0
    g = gcd(k, r)
    return r // g, k // g, (r - k) // g

