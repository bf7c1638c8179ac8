"""Exact arithmetic in the completed local ring of a smoothed node.

The ring is K[t][x, y] / (x*y - t^l) over a prime field K = F_p.  Every
element has a unique normal form in which no monomial contains both x and
y: whenever a product creates x^a * y^b, the smaller exponent is traded
for t via x*y -> t^l.  All operations return normal forms, so equality is
literal comparison of term dictionaries.

A monomial is keyed (x exponent, y exponent, t exponent); normal forms
have x*y exponent product zero.  The deformation parameter t can be left
generic or pinned to a field constant by specialize, t = 0 being the node.

TermRing and TermElement are the one implementation of term-dict
arithmetic over F_p.  NodeRing (x*y -> t^l), LaurentRing (x or y inverted,
no fold) and the covering chart of oracle.py (z*w -> t, its own fold)
supply only their monomial fold, variable names and print order.  The
rings are interned (_record.Interned), so elements share a ring exactly
when their `ring` is the same object.
"""
from __future__ import annotations

from operator import itemgetter

from ._record import Interned
from .field import FieldConfig

Monomial = tuple[int, int, int]


class TermRing:
    """Parent of sparse polynomials over F_p keyed by exponent tuples.

    Subclasses have a `field` and set `_element`, `_unit` (exponents of 1),
    `_names` and `_print_order` (positions in sort and print order).  They
    define `_fold(key)`, which rejects invalid exponents and returns the
    normal form, and `_mul_keys(k1, k2)`, the normal form of a product.
    """

    __slots__ = ()

    def from_terms(self, raw):
        """Element from an iterable of (exponents, coefficient) pairs."""
        fold, p = self._fold, self.field.p
        terms = {}
        for key, coeff in raw:
            key = fold(key)
            c = (terms.get(key, 0) + coeff) % p
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return self._element(self, terms)

    def zero(self):
        return self._element(self, {})

    def const(self, c: int):
        c %= self.field.p
        return self._element(self, {self._unit: c} if c else {})

    def one(self):
        return self.const(1)


class TermElement:
    """Normal-form element of a TermRing.  Treat as immutable."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TermRing, terms: dict):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the ring's print order."""
        order = itemgetter(*self.ring._print_order)
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.const(other)
        if isinstance(other, TermElement):
            if other.ring is not self.ring:
                raise ValueError("elements live in different rings")
            return other
        return None

    def __add__(self, other):
        if type(other) is not type(self) or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        p = self.ring.field.p
        terms = dict(self.terms)
        for key, c in other.terms.items():
            c = (terms.get(key, 0) + c) % p
            if c:
                terms[key] = c
            else:
                del terms[key]
        return type(self)(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return type(self)(self.ring, {k: p - c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not type(self) or other.ring is not self.ring:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        ring = self.ring
        p = ring.field.p
        mul_keys = ring._mul_keys
        terms = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = mul_keys(k1, k2)
                c = (get(key, 0) + c1 * c2) % p
                if c:
                    terms[key] = c
                else:  # c1 * c2 is a unit mod p, so the key was already present
                    del terms[key]
        return type(self)(ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (
            isinstance(other, TermElement)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        # a constant equals its int (see __eq__), so it must hash like it
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and self.ring._unit in terms:
            return hash(terms[self.ring._unit])
        return hash((self.ring, frozenset(terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        names, order = self.ring._names, self.ring._print_order
        parts = []
        for key, coeff in self.sorted_terms():
            body = "*".join(names[i] if key[i] == 1 else f"{names[i]}^{key[i]}"
                            for i in order if key[i])
            if not body:
                parts.append(str(coeff))
            else:
                parts.append(body if coeff == 1 else f"{coeff}*{body}")
        return " + ".join(parts)


class RingElement(TermElement):
    """Normal-form element of a NodeRing.  Treat as immutable."""

    __slots__ = ()

    # own class-body binding: perfbench/tracing.py wraps methods per class
    __mul__ = __rmul__ = TermElement.__mul__

    def xy_degree(self) -> int:
        """Largest x- or y-exponent across terms (used for degree filtrations)."""
        return max((xe + ye for (xe, ye, _te) in self.terms), default=0)

    def specialize(self, t: int) -> RingElement:
        """Substitute the field constant t for the smoothing parameter."""
        raw = [((xe, ye, 0), coeff * pow(t, te, self.ring.field.p))
               for (xe, ye, te), coeff in self.terms.items()]
        return self.ring.from_terms(raw)

    def localize(self, at: str) -> LaurentElement:
        """Image in K[t][v, 1/v] after inverting v = x (or v = y).

        Inverting x sends y to t^l / x; inverting y sends x to t^l / y.
        """
        l = self.ring.l
        if at == "x":
            raw = [((xe - ye, te + l * ye), c) for (xe, ye, te), c in self.terms.items()]
        else:
            raw = [((ye - xe, te + l * xe), c) for (xe, ye, te), c in self.terms.items()]
        return LaurentRing(self.ring.field, at).from_terms(raw)


class NodeRing(TermRing, Interned):
    """K[t][x, y] / (x*y - t^l) with unique mixed-monomial-free normal forms.

    Interned: NodeRing(field, l) is one object per (field, l).
    """

    __slots__ = _fields = ("field", "l")

    _element = RingElement
    _unit = (0, 0, 0)
    _names = ("x", "y", "t")
    _print_order = (2, 0, 1)  # t-degree, then x-degree, then y-degree

    def __new__(cls, field: FieldConfig, l: int):
        if type(l) is not int or l < 1:
            raise ValueError("node parameter l must be a positive integer")
        return cls._intern(field, l)

    def __repr__(self):
        return f"NodeRing(p={self.field.p}, l={self.l})"

    # own class-body bindings: perfbench/tracing.py wraps methods per class;
    # binding __eq__ alone would set __hash__ to None
    __eq__, __hash__ = Interned.__eq__, Interned.__hash__
    from_terms = TermRing.from_terms

    def _fold(self, key) -> Monomial:
        """x^a y^b t^c with m = min(a, b) becomes x^(a-m) y^(b-m) t^(c+l*m).

        The result already has x- or y-exponent zero, so one pass is confluent.
        """
        xe, ye, te = key
        if xe < 0 or ye < 0 or te < 0:
            raise ValueError(f"negative exponent in monomial {(xe, ye, te)}")
        m = xe if xe < ye else ye
        return (xe - m, ye - m, te + self.l * m)

    def _mul_keys(self, k1: Monomial, k2: Monomial) -> Monomial:
        xe, ye = k1[0] + k2[0], k1[1] + k2[1]
        m = xe if xe < ye else ye
        return (xe - m, ye - m, k1[2] + k2[2] + self.l * m)

    def monomial(self, coeff: int = 1, x: int = 0, y: int = 0, t: int = 0) -> RingElement:
        return self.from_terms([((x, y, t), coeff)])

    def t(self, exp: int = 1) -> RingElement:
        return self.monomial(t=exp)

    def x(self, exp: int = 1) -> RingElement:
        return self.monomial(x=exp)

    def y(self, exp: int = 1) -> RingElement:
        return self.monomial(y=exp)


class LaurentElement(TermElement):
    """Element of K[t][v, 1/v], keyed (v exponent, t exponent)."""

    __slots__ = ()

    def as_unit_monomial(self) -> tuple[int, int] | None:
        """(coeff, v-exponent) when the element is c * v^k, else None.

        Such elements are exactly the units among monomials: t is not
        inverted, so a unit must have t-exponent zero.
        """
        if len(self.terms) != 1:
            return None
        (vexp, texp), coeff = next(iter(self.terms.items()))
        if texp != 0:
            return None
        return coeff, vexp


class LaurentRing(TermRing, Interned):
    """K[t][v, 1/v], the node ring with v = x or v = y made a unit.  Interned."""

    __slots__ = _fields = ("field", "var")

    _element = LaurentElement
    _unit = (0, 0)
    _print_order = (1, 0)  # t-degree, then v-degree

    def __new__(cls, field: FieldConfig, var: str):
        if var not in ("x", "y"):
            raise ValueError("localization variable must be 'x' or 'y'")
        return cls._intern(field, var)

    @property
    def _names(self) -> tuple[str, str]:
        return (self.var, "t")

    def _fold(self, key) -> tuple[int, int]:
        vexp, texp = key
        if texp < 0:
            raise ValueError("t exponent must stay nonnegative")
        return (vexp, texp)

    def _mul_keys(self, k1, k2) -> tuple[int, int]:
        return (k1[0] + k2[0], k1[1] + k2[1])

    def monomial(self, coeff: int = 1, vexp: int = 0, texp: int = 0) -> LaurentElement:
        return self.from_terms([((vexp, texp), coeff)])
