"""Products, powers, and symmetries of the node-ring root modules.

The modules M(i, j) over a fixed node ring multiply: the product of the
exponent-(i, j) and exponent-(i', j') modules lands in the module with
exponents reduced mod l, and the map is determined by its values on
generator pairs.  Symmetric powers of a single module work the same way
and give the comparison maps between the tiers of a root system.

On the covering chart each generator is a z- or w-power (e1 = z^i,
e2 = w^j, times the trivializing symbol), so every product or power
image is one invariant monomial z^a w^b; _chart_image is the single rule
that reads such a monomial back onto the target module.  The oracle
module recomputes the images by multiplying upstairs and lowering, and
never calls that rule.

product_map, sym_power_map and power_map are cached per process
(functools.cache): equal arguments return the one map object built for
them, so its images are shared and must be treated as immutable.  Node
rings are interned, so a cached map lives over the caller's own ring.
"""
from __future__ import annotations

from functools import cache
from itertools import product as iproduct

from ._record import Record
from .modules import (
    GeneratorMap,
    ModuleElement,
    ModulePresentation,
    SymPowerSource,
    TensorSource,
    make_module,
)
from .ring import NodeRing, RingElement


def _chart_image(target: ModulePresentation, a: int, b: int) -> ModuleElement:
    """The invariant chart monomial z^a w^b as an element of the target.

    Invariance gives a - b = i (mod l) for the target's (i, j), so z^a w^b
    = t^b z^(a-b) is t^b x^((a-b-i)/l) e1 when a - b >= i, and otherwise
    t^a w^(b-a) = t^a y^((b-a-j)/l) e2 (a free target identifies e2 with e1).
    Either term is already a module normal form (no y on e1, no x on e2),
    so the element is built directly, without target.element.
    """
    ring, l, zero = target.ring, target.ring.l, target.ring.zero()
    if a - b >= target.i:
        return ModuleElement(target, RingElement(ring, {((a - b - target.i) // l, 0, b): 1}), zero)
    term = RingElement(ring, {(0, (b - a - target.j) // l, a): 1})
    return ModuleElement(target, term, zero) if target.is_free else ModuleElement(target, zero, term)


@cache
def product_map(a: ModulePresentation, b: ModulePresentation) -> GeneratorMap:
    """Multiplication M(i, j) x M(i', j') -> M(i+i' mod l, j+j' mod l).

    The generator pair (e_ka, e_kb) lifts to z^(sum of the i's over
    factors e1) w^(sum of the j's over factors e2), read back by
    _chart_image.  With v1, v2 the target generators this gives, by the
    size of i + i' (a free factor's generator is 1):

      i + i' > l:   (e1,e1) -> x*v1   (e1,e2) -> t^j' * v1
                    (e2,e1) -> t^j * v1    (e2,e2) -> v2
      i + i' = l:   (e1,e1) -> x*v    (e1,e2) -> t^i * v
                    (e2,e1) -> t^j * v     (e2,e2) -> y*v
      0 < i+i' < l: (e1,e1) -> v1     (e1,e2) -> t^i * v2
                    (e2,e1) -> t^i' * v2   (e2,e2) -> y*v2
    """
    ring = a.ring
    if b.ring is not ring:
        raise ValueError("factors live over different node rings")
    l = ring.l
    target = make_module(ring, (a.i + b.i) % l, (a.j + b.j) % l)
    images = {(ka, kb): _chart_image(target, (ka == 1) * a.i + (kb == 1) * b.i,
                                     (ka == 2) * a.j + (kb == 2) * b.j)
              for ka in a.generator_keys for kb in b.generator_keys}
    return GeneratorMap(TensorSource(a, b), target, images)


@cache
def sym_power_map(pres: ModulePresentation, m: int) -> GeneratorMap:
    """m-th symmetric power M(i, j)^(m) -> M(m*i mod l, m*j mod l).

    The generator monomial e1^(m-k) e2^k lifts to z^((m-k)*i) w^(k*j),
    read back by _chart_image.
    """
    source = SymPowerSource(pres, m)
    target = pres.grade(m)
    images = {k: _chart_image(target, (m - k) * pres.i, k * pres.j) for k in source.keys}
    return GeneratorMap(source, target, images)


def tier_module(ring: NodeRing, i_top: int, j_top: int, r: int, d: int) -> ModulePresentation:
    """Tier d of a root system with top pair (i_top, j_top): its grade r/d.

    Requires l | r and d | r.  The top tier is d = r; tier d is free
    exactly when l divides (r/d) * i_top, and then every tier e | d is
    free as well.
    """
    if r % ring.l != 0:
        raise ValueError(f"l must divide r; got l={ring.l}, r={r}")
    if d < 1 or r % d != 0:
        raise ValueError(f"tier must divide r; got d={d}, r={r}")
    return make_module(ring, i_top, j_top).grade(r // d)


@cache
def power_map(ring: NodeRing, r: int, d: int, e: int, i_top: int, j_top: int) -> GeneratorMap:
    """Comparison map from the (d/e)-th symmetric power of tier d to tier e.

    Requires e | d | r.  The map is the symmetric power of the tier-d
    module; its target, grade (r/d)*(d/e) = r/e, is tier e.
    """
    if d < 1 or r % d != 0 or e < 1 or d % e != 0:
        raise ValueError(f"need e | d | r; got e={e}, d={d}, r={r}")
    return sym_power_map(tier_module(ring, i_top, j_top, r, d), d // e)


def compatibility_check(ring: NodeRing, r: int, d2: int, d1: int, d0: int,
                        i_top: int, j_top: int) -> bool:
    """Composing tier comparisons d2 -> d1 -> d0 matches the direct d2 -> d0 map.

    The d2 -> d1 map is applied blockwise to each generator monomial
    (d2/d0 factors split into d1/d0 blocks of d2/d1 factors), and the
    d1 -> d0 map is then evaluated multilinearly on the block results.
    """
    if d1 < 1 or d2 % d1 != 0 or d0 < 1 or d1 % d0 != 0 or r % d2 != 0:
        raise ValueError(f"need d0 | d1 | d2 | r; got {d0}, {d1}, {d2}, {r}")
    top = power_map(ring, r, d2, d1, i_top, j_top)
    bottom = power_map(ring, r, d1, d0, i_top, j_top)
    direct = power_map(ring, r, d2, d0, i_top, j_top)

    block = d2 // d1
    nblocks = d1 // d0
    for key in direct.images:
        # a free source has the single key 0: every factor is e1
        factors = [1] * (d2 // d0 - key) + [2] * key
        block_values: list[ModuleElement] = []
        for bidx in range(nblocks):
            chunk = factors[bidx * block:(bidx + 1) * block]
            block_values.append(top.images[chunk.count(2)])
        composed = bottom.apply(*block_values)
        if composed != direct.images[key]:
            return False
    return True


def dual_pairing(pres: ModulePresentation) -> GeneratorMap:
    """Pairing of M(i, j) with M(j, i) into the free module.

    This is the product map for the exponent-sum-l case; its generator
    matrix is ((x, t^i), (t^j, y)), and inverting x or y makes it
    perfect since the off-diagonal entries become unit multiples.
    """
    return product_map(pres, pres.grade(-1))


# -- the graded algebra in a window -------------------------------------


class AlgebraWindow(Record):
    """Tiers and pairwise products of a root system, graded over a window.

    Grade n holds the module with exponents (n*i mod l, n*j mod l); the
    top root sits at grade 1, its d-th power at grade d, and duals at
    negative grades.  Products cover every pair with both factors and
    the sum inside [-radius, radius].
    """

    __slots__ = _fields = ("grades", "products")

    def __init__(self, grades: dict, products: dict):
        object.__setattr__(self, "grades", grades)
        object.__setattr__(self, "products", products)


def algebra_window(ring: NodeRing, i: int, j: int, r: int, radius: int) -> AlgebraWindow:
    """Build all tier modules and products with grades in [-radius, radius].

    Requires radius >= r so the window exhibits the full period: grade
    r (and every multiple of it) is the free module, t acting there as
    the smoothing parameter of the downstairs node.
    """
    if r % ring.l != 0:
        raise ValueError(f"the node parameter l={ring.l} must divide r={r}")
    if radius < r:
        raise ValueError(f"window radius {radius} must be at least r={r}")
    top = make_module(ring, i, j)
    grades = {n: top.grade(n) for n in range(-radius, radius + 1)}
    products = {}
    for n1, n2 in iproduct(range(-radius, radius + 1), repeat=2):
        if -radius <= n1 + n2 <= radius:
            products[(n1, n2)] = product_map(grades[n1], grades[n2])
    return AlgebraWindow(grades, products)


# -- symmetries ----------------------------------------------------------


class AutomorphismGroup(Record):
    """Generator-scaling symmetries preserving the e-th power map."""

    __slots__ = _fields = ("pairs", "order", "diagonal")

    def __init__(self, pairs: tuple[tuple[int, int], ...], order: int, diagonal: bool):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "diagonal", diagonal)


def automorphisms(pres: ModulePresentation, e: int, t: int | None = None,
                  disconnected: bool = False) -> AutomorphismGroup:
    """Scalings (h, s) of the two generators compatible with the e-th power.

    A pair scales e1 by h and e2 by s, both e-th roots of unity.  It
    must be a module endomorphism at the field constant t (t generic if
    None; away from t = 0 the relations force h = s) and must fix every
    image of the e-th symmetric power map that survives there.  At t = 0
    the two branches of the node decouple and the full product group
    appears, but only when the covering curve is disconnected; the
    connected case keeps the diagonal.  Free modules identify the
    generators, so they always force h = s.
    """
    field = pres.ring.field
    if e < 1 or field.r % e != 0:
        raise ValueError(f"order {e} must divide the field level r={field.r}")
    roots = field.unity_roots(e)
    gamma = sym_power_map(pres, e)
    surviving = [k for k, img in gamma.images.items() if t is None or not img.specialize(t).is_zero]

    # endomorphism condition for h != s: (h - s) t^j = (s - h) t^i = 0
    split = not pres.is_free and t is not None and t % field.p == 0 and disconnected
    pairs = sorted((h, s) for h in roots for s in roots
                   if (h == s or split)
                   and all(pow(h, e - k, field.p) * pow(s, k, field.p) % field.p == 1
                           for k in surviving))
    return AutomorphismGroup(tuple(pairs), len(pairs), all(h == s for h, s in pairs))
