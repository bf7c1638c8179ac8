"""Rank-one torsion-free modules over the node ring, by presentation.

A standard module M(i, j) with i, j > 0 and i + j = l has two generators
with relations  t^j * e1 = x * e2  and  t^i * e2 = y * e1.  The free
module M(0, 0) has two generators identified with each other, hence one
effective generator.

Element normal form: a pair (f, g) of ring coefficients with f carrying
no y and g carrying no x (for the free module everything collapses onto
e1 and g = 0).  The presentation relations rewrite any stray monomial:
    y^b t^c on e1  ->  t^(c+i) y^(b-1) on e2
    x^a t^c on e2  ->  t^(c+j) x^(a-1) on e1
and one pass suffices because the moved monomials are already clean.

Maps out of modules, tensor products, and symmetric powers are recorded
by generator images (GeneratorMap).  Each source kind (LinearSource,
TensorSource, SymPowerSource) owns its generator keys, the coefficients
of its arguments on those keys, and its relations as combinations of
keys; GeneratorMap.apply sums coefficient * image, and
check_well_defined pushes every relation through the images and reports
the first nonzero defect, without either knowing the source kind.  Both
sum the e1 and e2 ring parts first and normalize once (_combine): exact,
since element is linear, so normalizing the sum is the sum of normal forms.
"""
from __future__ import annotations

from . import _linalg
from ._record import Interned, Record
from .ring import LaurentElement, NodeRing, RingElement


class ModulePresentation(Interned):
    """Presentation data for M(i, j) over a node ring with parameter l.  Interned."""

    __slots__ = _fields = ("ring", "i", "j")

    def __new__(cls, ring: NodeRing, i: int, j: int):
        l = ring.l
        if type(i) is not int or type(j) is not int or not (
                (i == 0 and j == 0) or (i > 0 and j > 0 and i + j == l)):
            raise ValueError(
                f"module exponents must be (0, 0) or positive with i + j = l; got ({i}, {j}) over l={l}")
        return cls._intern(ring, i, j)

    @property
    def is_free(self) -> bool:
        return self.i == 0 and self.j == 0

    @property
    def generator_keys(self) -> tuple[int, ...]:
        return (1,) if self.is_free else (1, 2)

    def grade(self, n: int) -> ModulePresentation:
        """Grade n of the root system with this module at grade 1: M(n*i mod l, n*j mod l)."""
        l = self.ring.l
        return ModulePresentation(self.ring, n * self.i % l, n * self.j % l)

    def zero(self) -> ModuleElement:
        z = self.ring.zero()
        return ModuleElement(self, z, z)

    def element(self, c1, c2=0) -> ModuleElement:
        """Element c1 * e1 + c2 * e2 for arbitrary ring coefficients."""
        ring = self.ring
        if isinstance(c1, int):
            c1 = ring.const(c1)
        if isinstance(c2, int):
            c2 = ring.const(c2)
        if c1.ring is not ring or c2.ring is not ring:  # node rings are interned
            raise ValueError("coefficients live in a different ring")
        if self.is_free:
            return ModuleElement(self, c1 + c2, ring.zero())
        # c1 and c2 are normal forms, so only a moved c1 term and a c2 term
        # can share a key (on e2), or a c1 term and a moved c2 term (on e1)
        p, f, g = ring.field.p, {}, {}
        for (xe, ye, te), c in c1.terms.items():
            if ye:
                g[(0, ye - 1, te + self.i)] = c
            else:
                f[(xe, 0, te)] = c
        for (xe, ye, te), c in c2.terms.items():
            part, key = (f, (xe - 1, 0, te + self.j)) if xe else (g, (0, ye, te))
            c = (part.get(key, 0) + c) % p
            if c:
                part[key] = c
            else:
                part.pop(key)
        return ModuleElement(self, RingElement(ring, f), RingElement(ring, g))

    def generator(self, key: int) -> ModuleElement:
        if key not in self.generator_keys:
            raise ValueError(f"no generator {key} on {self}")
        one, zero = self.ring.one(), self.ring.zero()  # e1 and e2 are already normal forms
        return ModuleElement(self, one, zero) if key == 1 else ModuleElement(self, zero, one)

    def relations(self) -> tuple[tuple[tuple[RingElement, int], ...], ...]:
        """Presentation relations as linear combinations of generators.

        The free module exposes a single effective generator, so it has
        no relations left to check.
        """
        if self.is_free:
            return ()
        ring = self.ring
        return (
            ((ring.t(self.j), 1), (-ring.x(), 2)),
            ((-ring.y(), 1), (ring.t(self.i), 2)),
        )

    def __repr__(self):
        return f"M({self.i},{self.j})@l={self.ring.l}"


def make_module(ring: NodeRing, i: int, j: int) -> ModulePresentation:
    return ModulePresentation(ring, i, j)


class ModuleElement:
    """Normal-form module element: f on e1 (no y) plus g on e2 (no x)."""

    __slots__ = ("presentation", "f", "g")

    def __init__(self, presentation: ModulePresentation, f: RingElement, g: RingElement):
        self.presentation = presentation
        self.f = f
        self.g = g

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero and self.g.is_zero

    def _check(self, other: ModuleElement):
        if self.presentation is not other.presentation:
            raise ValueError("elements live in different modules")

    def __add__(self, other: ModuleElement):
        self._check(other)
        return ModuleElement(self.presentation, self.f + other.f, self.g + other.g)

    def __neg__(self):
        return ModuleElement(self.presentation, -self.f, -self.g)

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __rmul__(self, scalar):
        """Module action of a ring element (or integer) on the left."""
        if isinstance(scalar, int):
            scalar = self.presentation.ring.const(scalar)
        if not isinstance(scalar, RingElement):
            return NotImplemented
        return self.presentation.element(scalar * self.f, scalar * self.g)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.presentation is other.presentation
            and self.f == other.f
            and self.g == other.g
        )

    def __hash__(self):
        return hash((self.presentation, self.f, self.g))

    def specialize(self, t: int) -> ModuleElement:
        return ModuleElement(self.presentation, self.f.specialize(t), self.g.specialize(t))

    def localized_coefficient(self, at: str) -> LaurentElement:
        """Coefficient on the surviving free generator after inverting x or y.

        Inverting x leaves e1 free with e2 = t^j / x * e1; inverting y
        leaves e2 free with e1 = t^i / y * e2.
        """
        pres = self.presentation
        floc, gloc = self.f.localize(at), self.g.localize(at)
        if pres.is_free:
            return floc
        if at == "x":
            return floc + gloc * floc.ring.monomial(1, -1, pres.j)
        return gloc + floc * gloc.ring.monomial(1, -1, pres.i)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        if not self.f.is_zero:
            parts.append(f"({self.f})*e1")
        if not self.g.is_zero:
            parts.append(f"({self.g})*e2")
        return " + ".join(parts)


# -- maps given by generator images ------------------------------------


# Source kinds: coefficients(*elements) gives (key, coefficient) pairs and
# relations() gives (description, ((coefficient, key), ...)) pairs.


class LinearSource(Record):
    """A module itself: keys 1, 2 (the free module has key 1 only)."""

    __slots__ = _fields = ("module",)

    def __init__(self, module: ModulePresentation):
        object.__setattr__(self, "module", module)

    @property
    def keys(self) -> tuple[int, ...]:
        return self.module.generator_keys

    def coefficients(self, *elements: ModuleElement):
        (m,) = elements
        if m.presentation is not self.module:
            raise ValueError("argument lives off the source module")
        return tuple(zip(self.module.generator_keys, (m.f, m.g)))

    def relations(self):
        return tuple((f"relation {ridx}", rel) for ridx, rel in enumerate(self.module.relations()))


class TensorSource(Record):
    """left (x) right: keys are pairs (a, b) of factor keys, expanded bilinearly."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: ModulePresentation, right: ModulePresentation):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a in self.left.generator_keys for b in self.right.generator_keys)

    def coefficients(self, *elements: ModuleElement):
        a, b = elements
        if a.presentation is not self.left or b.presentation is not self.right:
            raise ValueError("arguments live off the source modules")
        # only nonzero factors are multiplied
        for ka, ca in zip(self.left.generator_keys, (a.f, a.g)):
            for kb, cb in zip(self.right.generator_keys, (b.f, b.g)):
                if not (ca.is_zero or cb.is_zero):
                    yield (ka, kb), ca * cb

    def relations(self):
        left = tuple((f"left relation {ridx} x gen {kb}", tuple((c, (k, kb)) for c, k in rel))
                     for ridx, rel in enumerate(self.left.relations())
                     for kb in self.right.generator_keys)
        right = tuple((f"gen {ka} x right relation {ridx}", tuple((c, (ka, k)) for c, k in rel))
                      for ka in self.left.generator_keys
                      for ridx, rel in enumerate(self.right.relations()))
        return left + right


class SymPowerSource(Record):
    """Sym^m: key k = 0..m counts the e2 factors in e1^(m-k) e2^k (free module: key 0).

    The m arguments are multiplied in one at a time by
    c'_k = c_k*f + c_(k-1)*g, where c_k is the coefficient of
    e1^(n-k) e2^k after n arguments.  Only the nonzero c_k are kept, so
    each argument costs one ring product per live coefficient and part:
    m products when every argument lies on one generator, O(m^2) when
    arguments lie on both.  Relations are each module relation times
    every degree-(m-1) generator monomial.
    """

    __slots__ = _fields = ("module", "power")

    def __init__(self, module: ModulePresentation, power: int):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "power", power)
        if type(power) is not int or power < 1:
            raise ValueError("symmetric power must be at least 1")

    @property
    def keys(self) -> tuple[int, ...]:
        return (0,) if self.module.is_free else tuple(range(self.power + 1))

    def coefficients(self, *elements: ModuleElement):
        if len(elements) != self.power:
            raise ValueError(f"expected {self.power} arguments")
        for m in elements:
            if m.presentation is not self.module:
                raise ValueError("argument lives off the source module")
        # only nonzero coefficients are kept; a free module has g = 0, so
        # only key 0 ever appears, and a zero part adds no products
        coeffs = {0: self.module.ring.one()}
        for m in elements:
            f, g = m.f, m.g
            nxt = {} if f.is_zero else {k: c * f for k, c in coeffs.items()}
            if not g.is_zero:
                for k, c in coeffs.items():
                    c = c * g
                    if k + 1 in nxt:
                        c = nxt.pop(k + 1) + c
                    if not c.is_zero:
                        nxt[k + 1] = c
            coeffs = nxt
        return coeffs.items()

    def relations(self):
        # generator key 1 or 2 of the relation adds 0 or 1 e2 factor to e1^(m-1-k2) e2^k2
        return tuple((f"monomial e1^{self.power - 1 - k2}e2^{k2} x relation {ridx}",
                      tuple((c, k2 + k - 1) for c, k in rel))
                     for k2 in range(self.power)
                     for ridx, rel in enumerate(self.module.relations()))


class GeneratorMap:
    """Module map recorded by its values on source generators.  Treat as immutable.

    The constructors in products.py cache their maps, so one map object
    (and its images dict) is shared by every caller; copy the images
    (dict(gmap.images)) before altering them.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target: ModulePresentation, images: dict):
        keys = source.keys
        if set(images) != set(keys):
            raise ValueError(f"images must cover exactly the keys {keys}")
        for key, img in images.items():
            if img.presentation is not target:
                raise ValueError(f"image for {key} lives off the target module")
        self.source = source
        self.target = target
        self.images = dict(images)

    def apply(self, *elements: ModuleElement) -> ModuleElement:
        """Evaluate on module elements, one per source slot.

        Linear: one argument.  Tensor: (left, right).  Symmetric power m:
        m arguments, in any order since the images are symmetric.  The sum
        of coefficient * image is normalized once, by _combine.
        """
        images = self.images
        return _combine(self.target, ((c, images[key])
                                      for key, c in self.source.coefficients(*elements)))

    def __repr__(self):
        return f"GeneratorMap({self.source!r} -> {self.target!r})"


def _combine(target: ModulePresentation, pairs) -> ModuleElement:
    """Sum of c * image over (c, image) pairs with one target.element call.

    element is linear, so element(sum of c*f, sum of c*g) is the sum of the
    element(c*f, c*g) = c * image.  Zero parts and coefficients add no products.
    """
    f = g = target.ring.zero()
    for c, img in pairs:
        if not (c.is_zero or img.f.is_zero):
            f = f + c * img.f
        if not (c.is_zero or img.g.is_zero):
            g = g + c * img.g
    return target.element(f, g)


class RelationViolation:
    """Witness that a generator map fails to respect a source relation."""

    __slots__ = ("description", "defect")

    def __init__(self, description: str, defect: ModuleElement):
        self.description = description
        self.defect = defect

    def __repr__(self):
        return f"RelationViolation({self.description}: defect {self.defect})"


def check_well_defined(gmap: GeneratorMap) -> RelationViolation | None:
    """First source relation violated with t generic, or None.

    A defect that is zero with t generic stays zero at every value of t,
    so a pass certifies every specialization; the converse fails, which
    is what makes extra maps appear at t = 0.  Each defect is normalized
    once, by _combine, and equals the term-by-term module sum.
    """
    target, images = gmap.target, gmap.images
    for description, rel in gmap.source.relations():
        defect = _combine(target, ((coeff, images[key]) for coeff, key in rel))
        if not defect.is_zero:
            return RelationViolation(description, defect)
    return None


# -- graded pieces at a specialized parameter ---------------------------


def monomial_basis(pres: ModulePresentation, degree: int) -> tuple[tuple[int, int], ...]:
    """K-basis of the degree-d slice at specialized t, as (gen, exponent).

    Degree counts x- and y-exponents; t is a constant here.  Standard
    modules get x^d e1 and y^d e2 in every degree; the free module gets
    the single generator in degree 0 and x^d, y^d above.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if pres.is_free:
        return ((1, 0),) if degree == 0 else ((1, degree), (2, degree))
    return ((1, degree), (2, degree))


def _vectorize(elem: ModuleElement, index: dict[tuple[int, int], int]) -> list[int]:
    """Coordinates of a t-specialized element in the monomial basis slices."""
    vec = [0] * len(index)
    for (xe, ye, te), c in elem.f.terms.items():
        if te:
            raise ValueError("element is not specialized")
        key = (1, xe) if ye == 0 else (2, ye)
        vec[index[key]] = c
    for (xe, ye, te), c in elem.g.terms.items():
        if te:
            raise ValueError("element is not specialized")
        vec[index[(2, ye)]] = c
    return vec


def cokernel_length(gmap: GeneratorMap) -> int:
    """K-dimension of the cokernel at t = 0 of a well-defined map given with t generic.

    Works degree by degree: with Q_m the cokernel dimension in degrees
    <= m, the answer is the stable value of Q_m.  At t = 0 multiplying
    by x or y never lowers degree, so products of image generators by
    monomials of degree <= M span every image element of degree <= M,
    making each Q_m exact.  _linalg.row_reduce puts the image rows into
    an echelon basis once; each slice's coordinate rows are then reduced
    against that same basis by _linalg.extend_basis, and Q_m counts the
    pivots they add.
    Stops after three consecutive zero increments, counted once
    m >= max(i, j, l); the top image degree only sets the search cap
    max(i, j, l, image degree) + 8, past which it raises RuntimeError.
    The three-zero stop is a heuristic.
    """
    violation = check_well_defined(gmap)
    if violation is not None:
        raise ValueError(f"map is not well defined: {violation!r}")

    pres = gmap.target
    ring = pres.ring
    p = ring.field.p
    images = [img.specialize(0) for img in gmap.images.values()]
    img_degree = max((max(im.f.xy_degree(), im.g.xy_degree()) for im in images), default=0)
    floor = max(pres.i, pres.j, ring.l, img_degree)
    cap = floor + 8

    basis: list[tuple[int, int]] = []
    for d in range(cap + img_degree + 1):
        basis.extend(monomial_basis(pres, d))
    index = {key: n for n, key in enumerate(basis)}

    multipliers = [ring.one()]
    for a in range(1, cap + 1):
        multipliers.append(ring.x(a))
        multipliers.append(ring.y(a))
    image_rows = []
    for mu in multipliers:
        for im in images:
            prod = (mu * im).specialize(0)
            if not prod.is_zero:
                image_rows.append(_vectorize(prod, index))
    _, pivots = _linalg.row_reduce(image_rows, p)

    q = prev_q = 0
    zeros = 0
    for m in range(cap + 1):
        for key in monomial_basis(pres, m):
            row = [0] * len(basis)
            row[index[key]] = 1
            q += _linalg.extend_basis(pivots, row, p)
        if m > 0 and q == prev_q and m >= max(pres.i, pres.j, ring.l):
            zeros += 1
            if zeros == 3:
                return q
        else:
            zeros = 0
        prev_q = q
    raise RuntimeError(f"cokernel filtration did not stabilize below degree {cap}")
