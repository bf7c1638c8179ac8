"""Products, powers, and symmetries of the node-ring root modules.

The modules M(i, j) over a fixed node ring multiply: the product of the
exponent-(i, j) and exponent-(i', j') modules lands in the module with
exponents reduced mod l, and the map is determined by its values on
generator pairs.  Symmetric powers of a single module work the same way
and give the comparison maps between the tiers of a root system.  All
images here are derived from the covering-chart picture (each generator
is a z- or w-power times the trivializing symbol) and are checked
against that picture by the oracle module in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .modules import (
    GeneratorMap,
    ModuleElement,
    ModulePresentation,
    SymPowerSource,
    TensorSource,
    make_module,
)
from .ring import NodeRing


def product_map(a: ModulePresentation, b: ModulePresentation) -> GeneratorMap:
    """Multiplication M(i, j) x M(i', j') -> M(i+i' mod l, j+j' mod l).

    With v1, v2 the target generators, the generator-pair images split
    by the size of i + i' (free factors act by collapsing onto the
    other factor's generators):

      i + i' > l:   (e1,e1) -> x*v1   (e1,e2) -> t^j' * v1
                    (e2,e1) -> t^j * v1    (e2,e2) -> v2
      i + i' = l:   (e1,e1) -> x*v    (e1,e2) -> t^i * v
                    (e2,e1) -> t^j * v     (e2,e2) -> y*v
      0 < i+i' < l: (e1,e1) -> v1     (e1,e2) -> t^i * v2
                    (e2,e1) -> t^i' * v2   (e2,e2) -> y*v2
    """
    ring = a.ring
    if b.ring != ring:
        raise ValueError("factors live over different node rings")
    l = ring.l
    target = make_module(ring, (a.i + b.i) % l, (a.j + b.j) % l)

    if a.is_free:
        images = {(1, kb): target.generator(kb) for kb in b.generator_keys}
        return GeneratorMap(TensorSource(a, b), target, images)
    if b.is_free:
        images = {(ka, 1): target.generator(ka) for ka in a.generator_keys}
        return GeneratorMap(TensorSource(a, b), target, images)

    t, x, y = ring.t, ring.x, ring.y
    s = a.i + b.i
    if s > l:
        images = {
            (1, 1): x() * target.generator(1),
            (1, 2): t(b.j) * target.generator(1),
            (2, 1): t(a.j) * target.generator(1),
            (2, 2): target.generator(2),
        }
    elif s == l:
        sigma = target.generator(1)
        images = {
            (1, 1): x() * sigma,
            (1, 2): t(a.i) * sigma,
            (2, 1): t(a.j) * sigma,
            (2, 2): y() * sigma,
        }
    else:
        images = {
            (1, 1): target.generator(1),
            (1, 2): t(a.i) * target.generator(2),
            (2, 1): t(b.i) * target.generator(2),
            (2, 2): y() * target.generator(2),
        }
    return GeneratorMap(TensorSource(a, b), target, images)


def sym_power_map(pres: ModulePresentation, m: int) -> GeneratorMap:
    """m-th symmetric power M(i, j)^(m) -> M(m*i mod l, m*j mod l).

    Writing u = (m*i - i_bar)/l and v = (m*j - j_bar)/l for the target
    exponents (i_bar, j_bar), the generator monomials map to

        e1^(m-k) e2^k  ->  x^(u-k) * t^(k*j) * v1        for k <= u,
        e1^(m-k) e2^k  ->  y^(v-m+k) * t^((m-k)*i) * v2  for k > u.
    """
    source = SymPowerSource(pres, m)
    ring = pres.ring
    target = pres.grade(m)
    u = (m * pres.i - target.i) // ring.l
    v = (m * pres.j - target.j) // ring.l
    images = {}
    for k in source.keys:
        if k <= u:
            images[k] = target.element(ring.monomial(x=u - k, t=k * pres.j), 0)
        else:
            images[k] = target.element(0, ring.monomial(y=v - m + k, t=(m - k) * pres.i))
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


@dataclass(frozen=True)
class AlgebraWindow:
    """Tiers and pairwise products of a root system, graded over a window.

    Grade n holds the module with exponents (n*i mod l, n*j mod l); the
    top root sits at grade 1, its d-th power at grade d, and duals at
    negative grades.  Products cover every pair with both factors and
    the sum inside [-radius, radius].
    """

    ring: NodeRing
    i: int
    j: int
    r: int
    radius: int
    grades: dict
    products: dict


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
    return AlgebraWindow(ring, i, j, r, radius, grades, products)


# -- symmetries ----------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismGroup:
    """Generator-scaling symmetries preserving the e-th power map."""

    pairs: tuple[tuple[int, int], ...]
    order: int
    diagonal: bool


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
    split = not pres.is_free and t is not None and field.reduce(t) == 0 and disconnected
    pairs = sorted((h, s) for h in roots for s in roots
                   if (h == s or split)
                   and all(pow(h, e - k, field.p) * pow(s, k, field.p) % field.p == 1
                           for k in surviving))
    return AutomorphismGroup(tuple(pairs), len(pairs), all(h == s for h, s in pairs))
