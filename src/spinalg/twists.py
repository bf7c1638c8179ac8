"""Twist arithmetic at nodes and markings.

A node twist k in {0, .., r-1} determines the local index l = r/gcd(k, r)
and the balanced exponent pair (a, b) = (k/gcd(k, r), l - a), which in
turn name the node-ring module M(a, b) carried by the root bundle on
each branch.
"""
from __future__ import annotations

from math import gcd

from ._record import Record


class TwistData(Record):
    """Node twist k at level r with its derived local exponents."""

    __slots__ = _fields = ("k", "r", "l", "a", "b")

    def __init__(self, k: int, r: int, l: int, a: int, b: int):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0 <= k < r):
            raise ValueError(f"twist must satisfy 0 <= k < r; got k={k}, r={r}")

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
    if k == 0:
        return TwistData(0, r, 1, 0, 0)
    g = gcd(k, r)
    l = r // g
    a = k // g
    return TwistData(k, r, l, a, l - a)

