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
by generator images (GeneratorMap); check_well_defined pushes every
presentation relation through the images and reports the first nonzero
defect.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import _linalg
from .ring import GENERIC, LaurentElement, NodeRing, RingElement, TMode


@dataclass(frozen=True)
class ModulePresentation:
    """Presentation data for M(i, j) over a node ring with parameter l."""

    ring: NodeRing
    i: int
    j: int

    def __post_init__(self):
        i, j, l = self.i, self.j, self.ring.l
        if i == 0 and j == 0:
            return
        if not (i > 0 and j > 0 and i + j == l):
            raise ValueError(
                f"module exponents must be (0, 0) or positive with i + j = l; got ({i}, {j}) over l={l}")

    @property
    def is_free(self) -> bool:
        return self.i == 0 and self.j == 0

    @property
    def generator_keys(self) -> tuple[int, ...]:
        return (1,) if self.is_free else (1, 2)

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
        if c1.ring != ring or c2.ring != ring:
            raise ValueError("coefficients live in a different ring")
        if self.is_free:
            return ModuleElement(self, c1 + c2, ring.zero())
        f_raw, g_raw = [], []
        for (xe, ye, te), c in c1.terms.items():
            if ye == 0:
                f_raw.append(((xe, 0, te), c))
            else:
                g_raw.append(((0, ye - 1, te + self.i), c))
        for (xe, ye, te), c in c2.terms.items():
            if xe == 0:
                g_raw.append(((0, ye, te), c))
            else:
                f_raw.append(((xe - 1, 0, te + self.j), c))
        return ModuleElement(self, ring.from_terms(f_raw), ring.from_terms(g_raw))

    def generator(self, key: int) -> ModuleElement:
        if key not in self.generator_keys:
            raise ValueError(f"no generator {key} on {self}")
        return self.element(1, 0) if key == 1 else self.element(0, 1)

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
        if self.presentation != other.presentation:
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
            and self.presentation == other.presentation
            and self.f == other.f
            and self.g == other.g
        )

    def __hash__(self):
        return hash((self.presentation, self.f, self.g))

    def specialize(self, mode: TMode) -> ModuleElement:
        return ModuleElement(self.presentation, self.f.specialize(mode), self.g.specialize(mode))

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


@dataclass(frozen=True)
class LinearSource:
    module: ModulePresentation


@dataclass(frozen=True)
class TensorSource:
    left: ModulePresentation
    right: ModulePresentation


@dataclass(frozen=True)
class SymPowerSource:
    module: ModulePresentation
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("symmetric power must be at least 1")


def source_generator_keys(source):
    """Generator keys: ints, pairs, or symmetric-power counts.

    Linear sources use 1, 2; tensor sources use pairs (a, b); the m-th
    symmetric power uses k = 0..m counting e2 factors in e1^(m-k) e2^k.
    Free modules contribute their single effective generator only.
    """
    if isinstance(source, LinearSource):
        return source.module.generator_keys
    if isinstance(source, TensorSource):
        return tuple((a, b)
                     for a in source.left.generator_keys
                     for b in source.right.generator_keys)
    if isinstance(source, SymPowerSource):
        if source.module.is_free:
            return (0,)
        return tuple(range(source.power + 1))
    raise TypeError(f"unknown source {source!r}")


class GeneratorMap:
    """Module map recorded by its values on source generators."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target: ModulePresentation, images: dict):
        keys = source_generator_keys(source)
        if set(images) != set(keys):
            raise ValueError(f"images must cover exactly the keys {keys}")
        for key, img in images.items():
            if img.presentation != target:
                raise ValueError(f"image for {key} lives off the target module")
        self.source = source
        self.target = target
        self.images = dict(images)

    def image(self, key) -> ModuleElement:
        return self.images[key]

    def apply(self, *elements: ModuleElement) -> ModuleElement:
        """Evaluate on module elements, one per source slot.

        Linear: one argument.  Tensor: (left, right), expanded
        bilinearly.  Symmetric power m: m arguments, multiplied in one
        at a time by c'_k = c_k*f + c_(k-1)*g, where c_k is the
        coefficient of e1^(n-k) e2^k after n arguments: O(m^2) ring
        products.  Symmetry of the images makes the order irrelevant.
        """
        src = self.source
        if isinstance(src, LinearSource):
            (m,) = elements
            if m.presentation != src.module:
                raise ValueError("argument lives off the source module")
            out = m.f * self.images[1]
            if not src.module.is_free:
                out = out + m.g * self.images[2]
            return out
        if isinstance(src, TensorSource):
            a, b = elements
            if a.presentation != src.left or b.presentation != src.right:
                raise ValueError("arguments live off the source modules")
            out = self.target.zero()
            for ka in src.left.generator_keys:
                ca = a.f if ka == 1 else a.g
                if ca.is_zero:
                    continue
                for kb in src.right.generator_keys:
                    cb = b.f if kb == 1 else b.g
                    if cb.is_zero:
                        continue
                    out = out + (ca * cb) * self.images[(ka, kb)]
            return out
        if isinstance(src, SymPowerSource):
            if len(elements) != src.power:
                raise ValueError(f"expected {src.power} arguments")
            for m in elements:
                if m.presentation != src.module:
                    raise ValueError("argument lives off the source module")
            # a free module has g = 0, so only coeffs[0] ever appears
            ring = src.module.ring
            coeffs = [ring.one()]
            for m in elements:
                nxt = [c * m.f for c in coeffs]
                if not m.g.is_zero:
                    nxt.append(ring.zero())
                    for k, c in enumerate(coeffs):
                        nxt[k + 1] = nxt[k + 1] + c * m.g
                coeffs = nxt
            out = self.target.zero()
            for k, c in enumerate(coeffs):
                if not c.is_zero:
                    out = out + c * self.images[k]
            return out
        raise TypeError(f"unknown source {src!r}")

    def __repr__(self):
        return f"GeneratorMap({self.source!r} -> {self.target!r})"


class RelationViolation:
    """Witness that a generator map fails to respect a source relation."""

    __slots__ = ("description", "defect")

    def __init__(self, description: str, defect: ModuleElement):
        self.description = description
        self.defect = defect

    def __repr__(self):
        return f"RelationViolation({self.description}: defect {self.defect})"


def _relation_defects(gmap: GeneratorMap):
    """Yield (description, defect) for every source relation pushed through the images."""
    src = gmap.source
    if isinstance(src, LinearSource):
        for ridx, rel in enumerate(src.module.relations()):
            defect = gmap.target.zero()
            for coeff, gkey in rel:
                defect = defect + coeff * gmap.images[gkey]
            yield f"relation {ridx}", defect
    elif isinstance(src, TensorSource):
        for ridx, rel in enumerate(src.left.relations()):
            for kb in src.right.generator_keys:
                defect = gmap.target.zero()
                for coeff, gkey in rel:
                    defect = defect + coeff * gmap.images[(gkey, kb)]
                yield f"left relation {ridx} x gen {kb}", defect
        for ka in src.left.generator_keys:
            for ridx, rel in enumerate(src.right.relations()):
                defect = gmap.target.zero()
                for coeff, gkey in rel:
                    defect = defect + coeff * gmap.images[(ka, gkey)]
                yield f"gen {ka} x right relation {ridx}", defect
    elif isinstance(src, SymPowerSource):
        if src.module.is_free:
            return
        # multiply each relation by every degree-(m-1) generator monomial
        for k2 in range(src.power):
            for ridx, rel in enumerate(src.module.relations()):
                defect = gmap.target.zero()
                for coeff, gkey in rel:
                    key = k2 + (1 if gkey == 2 else 0)
                    defect = defect + coeff * gmap.images[key]
                yield f"monomial e1^{src.power - 1 - k2}e2^{k2} x relation {ridx}", defect
    else:
        raise TypeError(f"unknown source {src!r}")


def check_well_defined(gmap: GeneratorMap, mode: TMode = GENERIC) -> RelationViolation | None:
    """First violated source relation in the given t-mode, or None.

    Generic-mode zero defects specialize to zero, so a generic pass
    certifies every specialization; the converse fails, which is what
    makes extra maps appear at t = 0.
    """
    for description, defect in _relation_defects(gmap):
        defect = defect.specialize(mode)
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


def graded_dims(pres: ModulePresentation, mode: TMode, bound: int) -> list[int]:
    """Dimensions of the degree filtration slices 0..bound at specialized t."""
    if mode.is_generic:
        raise ValueError("graded dimensions need a specialized t")
    return [len(monomial_basis(pres, d)) for d in range(bound + 1)]


def _vectorize(elem: ModuleElement, index: dict[tuple[int, int], int]) -> list[int]:
    """Coordinates of a t-specialized element in the monomial basis slices."""
    vec = [0] * len(index)
    pres = elem.presentation
    for (xe, ye, te), c in elem.f.terms.items():
        if te:
            raise ValueError("element is not specialized")
        key = (1, xe) if ye == 0 else (2, ye)
        if pres.is_free and xe == 0 and ye == 0:
            key = (1, 0)
        vec[index[key]] = c
    for (xe, ye, te), c in elem.g.terms.items():
        if te:
            raise ValueError("element is not specialized")
        vec[index[(2, ye)]] = c
    return vec


def cokernel_length(gmap: GeneratorMap, mode: TMode = TMode.specialized(0)) -> int:
    """K-dimension of the cokernel of a well-defined map at t = 0.

    Works degree by degree: with Q_m the cokernel dimension in degrees
    <= m, the answer is the stable value of Q_m.  At t = 0 multiplying
    by x or y never lowers degree, so products of image generators by
    monomials of degree <= M span every image element of degree <= M,
    making each Q_m exact.  Stops after three consecutive zero
    increments beyond both max(i, j, l) and the top image degree.
    """
    if mode.is_generic or gmap.target.ring.field.reduce(mode.value) != 0:
        raise ValueError("cokernel is computed at t = 0")
    violation = check_well_defined(gmap)
    if violation is not None:
        raise ValueError(f"map is not well defined: {violation!r}")

    pres = gmap.target
    ring = pres.ring
    p = ring.field.p
    images = [img.specialize(mode) for img in gmap.images.values()]
    img_degree = max((im.f.xy_degree() for im in images if not im.f.is_zero), default=0)
    img_degree = max(img_degree,
                     max((im.g.xy_degree() for im in images if not im.g.is_zero), default=0))
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
            prod = (mu * im).specialize(mode)
            if not prod.is_zero:
                image_rows.append(_vectorize(prod, index))
    image_rank = _linalg.rank(image_rows, p)

    def unit_row(key):
        row = [0] * len(basis)
        row[index[key]] = 1
        return row

    coordinate_rows: list[list[int]] = []
    prev_q = 0
    zeros = 0
    for m in range(cap + 1):
        coordinate_rows.extend(unit_row(key) for key in monomial_basis(pres, m))
        q = _linalg.rank(image_rows + coordinate_rows, p) - image_rank
        if m > 0 and q == prev_q and m >= max(pres.i, pres.j, ring.l):
            zeros += 1
            if zeros == 3:
                return q
        else:
            zeros = 0
        prev_q = q
    raise RuntimeError(f"cokernel filtration did not stabilize below degree {cap}")
