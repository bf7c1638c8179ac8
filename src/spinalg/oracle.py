"""Independent upstairs model: invariant monomials on the covering chart.

On the degree-l cyclic cover of the node the root sheaf trivializes:
everything lives in K[t][z, w, S, 1/S] / (z*w - t), where S is the
trivializing section and the group acts on z, w, S with characters
1, -1, b mod l.  The downstairs objects are the invariant parts:

    x = z^l,  y = w^l,  t = z*w,
    generator e1 of M(i, j)  =  z^i * S^s,
    generator e2 of M(i, j)  =  w^j * S^s,

for any symbol exponent s with i + b*s = 0 (mod l).  Multiplying
upstairs and re-expressing invariants downstairs recomputes every
product and power image by a route that never touches the presentation
formulas, which is what makes this module an oracle for them.

Shared with ring.py: only the term-dictionary arithmetic of TermRing and
TermElement (normal forms over F_p, +, -, *, **, equality, printing).
Independent: the chart fold z*w -> t, the group character, and the lift
and lower maps are defined here, and nothing is read from products.py.
"""
from __future__ import annotations

from math import gcd

from ._record import Interned
from .field import FieldConfig
from .modules import ModuleElement, ModulePresentation
from .ring import TermElement, TermRing

UpMonomial = tuple[int, int, int, int]  # (z, w, t, S) exponents; S may be negative


class UpstairsElement(TermElement):
    """Normal-form element of K[t][z, w, S, 1/S] / (z*w - t)."""

    __slots__ = ()

    # own class-body binding: perfbench/tracing.py wraps methods per class
    __mul__ = __rmul__ = TermElement.__mul__

    def invariant_part(self) -> UpstairsElement:
        """Subsum of monomials with trivial group character."""
        character = self.ring.character
        return UpstairsElement(self.ring, {k: c for k, c in self.terms.items() if character(k) == 0})


class SpinChart(TermRing, Interned):
    """Covering chart data: field, local index l, symbol character b.

    As a ring it is K[t][z, w, S, 1/S] / (z*w - t); the shared term
    arithmetic of ring.py runs on the fold defined here.  Interned.
    """

    __slots__ = _fields = ("field", "l", "b")

    _element = UpstairsElement
    _unit = (0, 0, 0, 0)
    _names = ("z", "w", "t", "S")
    _print_order = (2, 0, 1, 3)  # t, z, w, then S

    def __new__(cls, field: FieldConfig, l: int, b: int):
        if type(l) is not int or l < 1:
            raise ValueError("local index l must be a positive integer")
        if type(b) is not int or gcd(b, l) != 1:
            raise ValueError(f"symbol character must be a unit mod l; got b={b}, l={l}")
        return cls._intern(field, l, b)

    def character(self, mon: UpMonomial) -> int:
        ze, we, _te, se = mon
        return (ze - we + self.b * se) % self.l

    def _fold(self, key) -> UpMonomial:
        """z^a w^b t^c S^s with m = min(a, b) becomes z^(a-m) w^(b-m) t^(c+m) S^s."""
        ze, we, te, se = key
        if ze < 0 or we < 0 or te < 0:
            raise ValueError("z, w, t exponents must be nonnegative")
        m = min(ze, we)
        return (ze - m, we - m, te + m, se)

    def _mul_keys(self, k1: UpMonomial, k2: UpMonomial) -> UpMonomial:
        ze, we = k1[0] + k2[0], k1[1] + k2[1]
        m = min(ze, we)
        return (ze - m, we - m, k1[2] + k2[2] + m, k1[3] + k2[3])

    def monomial(self, coeff: int = 1, z: int = 0, w: int = 0, t: int = 0, s: int = 0) -> UpstairsElement:
        return self.from_terms([((z, w, t, s), coeff)])


# -- bridges between the chart and presented modules --------------------


def _check_chart(chart: SpinChart, pres: ModulePresentation) -> None:
    if pres.ring.l != chart.l or pres.ring.field is not chart.field:
        raise ValueError("module and chart disagree on l or the field")


def symbol_exponent(chart: SpinChart, pres: ModulePresentation) -> int:
    """Least s >= 0 with b*s = j (mod l), making w^j S^s (and z^i S^s) invariant."""
    _check_chart(chart, pres)
    return pres.j * pow(chart.b, -1, chart.l) % chart.l


def lift_element(chart: SpinChart, elem: ModuleElement, s_exp: int) -> UpstairsElement:
    """Upstairs image of a module element, the generators lifted at S^s_exp."""
    pres = elem.presentation
    _check_chart(chart, pres)
    l = chart.l
    raw = []
    for (xe, ye, te), c in elem.f.terms.items():
        # f multiplies e1 = z^i S^s; for the free module f may carry y too
        raw.append(((xe * l + pres.i, ye * l, te, s_exp), c))
    for (xe, ye, te), c in elem.g.terms.items():
        raw.append(((xe * l, ye * l + pres.j, te, s_exp), c))
    return chart.from_terms(raw)


def lower_element(chart: SpinChart, up: UpstairsElement, pres: ModulePresentation,
                  s_exp: int) -> ModuleElement:
    """Downstairs module element matching an invariant upstairs element.

    Every monomial must sit at S^s_exp, be invariant, and reduce to a
    multiple of a lifted generator; otherwise the element does not come
    from the module and a ValueError reports the offending monomial.
    """
    _check_chart(chart, pres)
    l = chart.l
    c1_raw, c2_raw = [], []
    for mon, c in up.terms.items():
        ze, we, te, se = mon
        if se != s_exp:
            raise ValueError(f"monomial {mon} sits at the wrong symbol power")
        if chart.character(mon) != 0:
            raise ValueError(f"monomial {mon} is not invariant")
        if we == 0 and (ze - pres.i) % l == 0 and ze >= pres.i:
            c1_raw.append((((ze - pres.i) // l, 0, te), c))
        elif ze == 0 and (we - pres.j) % l == 0 and we >= pres.j:
            c2_raw.append(((0, (we - pres.j) // l, te), c))
        else:
            raise ValueError(f"monomial {mon} does not lie over M({pres.i},{pres.j})")
    ring = pres.ring
    return pres.element(ring.from_terms(c1_raw), ring.from_terms(c2_raw))


def oracle_product_images(a: ModulePresentation, b: ModulePresentation,
                          target: ModulePresentation) -> dict:
    """Generator-pair product images computed purely upstairs."""
    chart = SpinChart(a.ring.field, a.ring.l, 1)
    sa, sb = symbol_exponent(chart, a), symbol_exponent(chart, b)
    images = {}
    for ka in a.generator_keys:
        for kb in b.generator_keys:
            up = lift_element(chart, a.generator(ka), sa) * lift_element(chart, b.generator(kb), sb)
            images[(ka, kb)] = lower_element(chart, up, target, sa + sb)
    return images


def oracle_sym_power_images(pres: ModulePresentation, m: int,
                            target: ModulePresentation) -> dict:
    """Symmetric-power images e1^(m-k) e2^k computed purely upstairs."""
    chart = SpinChart(pres.ring.field, pres.ring.l, 1)
    s = symbol_exponent(chart, pres)
    lift1 = lift_element(chart, pres.generator(1), s)
    if pres.is_free:  # one generator, so the single key 0
        return {0: lower_element(chart, lift1 ** m, target, m * s)}
    lift2 = lift_element(chart, pres.generator(2), s)
    # lift^0..m of each generator, one chart product per power
    up1, up2 = [chart.one()], [chart.one()]
    for _ in range(m):
        up1.append(up1[-1] * lift1)
        up2.append(up2[-1] * lift2)
    return {k: lower_element(chart, up1[m - k] * up2[k], target, m * s) for k in range(m + 1)}
