from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from spinalg.field import FieldConfig
from spinalg.modules import (
    GeneratorMap,
    LinearSource,
    ModuleElement,
    ModulePresentation,
    SymPowerSource,
    TensorSource,
    check_well_defined,
    cokernel_length,
    make_module,
    monomial_basis,
)
from spinalg.oracle import SpinChart
from spinalg.products import power_map, product_map, sym_power_map
from spinalg.ring import NodeRing, RingElement, TermElement


def ring(l: int, p: int = 97) -> NodeRing:
    return NodeRing(FieldConfig(p, 1), l)


def test_presentation_validation():
    r4 = ring(4)
    make_module(r4, 0, 0)
    make_module(r4, 1, 3)
    with pytest.raises(ValueError):
        make_module(r4, 1, 2)  # 1 + 2 != 4
    with pytest.raises(ValueError):
        make_module(r4, 0, 4)
    with pytest.raises(ValueError):
        make_module(r4, -1, 5)


def test_element_normal_form_rewrites():
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    # y*e1 rewrites through the relation onto e2 with a t^i tail
    elem = m13.element(r4.y(), r4.zero())
    assert elem.f.is_zero
    assert elem.g == r4.t()
    # x*e2 rewrites back onto e1 with a t^j tail
    elem2 = m13.element(r4.zero(), r4.x())
    assert elem2.f == r4.t(3)
    assert elem2.g.is_zero


def test_free_module_single_generator():
    r2 = ring(2)
    free = make_module(r2, 0, 0)
    assert free.is_free
    assert free.generator_keys == (1,)
    assert free.relations() == ()
    elem = free.element(r2.x(), r2.y())
    assert elem.g.is_zero  # everything lands on the one generator


@pytest.mark.parametrize("p", [5, 97])
def test_generators_equal_unit_elements(p):
    for l in range(1, 7):
        for i in range(l):
            pres = _module(p, l, i)
            assert pres.generator(1) == pres.element(1, 0)
            if pres.is_free:  # the free module has e1 only
                with pytest.raises(ValueError):
                    pres.generator(2)
            else:
                assert pres.generator(2) == pres.element(0, 1)
            with pytest.raises(ValueError):
                pres.generator(3)


def test_scalar_action_and_arithmetic():
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    e1, e2 = m13.generator(1), m13.generator(2)
    assert r4.t(3) * e1 == r4.x() * e2
    assert r4.t() * e2 == r4.y() * e1
    assert e1 + e2 - e2 == e1
    assert (e1 - e1).f.is_zero


def test_relation_consistency_all_shapes():
    r6 = ring(6)
    for i in range(1, 6):
        m = make_module(r6, i, 6 - i)
        for rel in m.relations():
            total = m.zero()
            for coeff, key in rel:
                total = total + coeff * m.generator(key)
            assert total.f.is_zero and total.g.is_zero


def test_product_map_well_defined():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    assert gm.target.i == 3 and gm.target.j == 1
    assert check_well_defined(gm) is None


def test_swapped_middle_images_fail():
    # exchanging the two cross images is exactly the near-miss a typo makes
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    bad = dict(gm.images)
    bad[(1, 2)], bad[(2, 1)] = bad[(2, 1)], bad[(1, 2)]
    broken = GeneratorMap(TensorSource(a, b), gm.target, bad)
    violation = check_well_defined(broken)
    assert violation is not None
    assert not violation.defect.f.is_zero or not violation.defect.g.is_zero


def test_perturbed_image_fails():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    bad = dict(gm.images)
    bad[(2, 2)] = bad[(2, 2)] + gm.target.generator(1)
    assert check_well_defined(GeneratorMap(TensorSource(a, b), gm.target, bad)) is not None


def test_sym_power_source_well_defined():
    r3 = ring(3)
    m12 = make_module(r3, 1, 2)
    gm = sym_power_map(m12, 3)
    assert isinstance(gm.source, SymPowerSource)
    assert check_well_defined(gm) is None


def test_linear_source_identity():
    r3 = ring(3)
    m12 = make_module(r3, 1, 2)
    ident = GeneratorMap(LinearSource(m12), m12,
                         {1: m12.generator(1), 2: m12.generator(2)})
    assert check_well_defined(ident) is None
    v = m12.element(r3.x() + r3.t(), r3.y())
    assert ident.apply(v) == v


def test_apply_is_multilinear():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    u1 = a.element(r4.x(), r4.zero())
    u2 = a.element(r4.t(), r4.const(3))
    w = b.element(r4.const(2), r4.y())
    assert gm.apply(u1 + u2, w) == gm.apply(u1, w) + gm.apply(u2, w)
    assert gm.apply(r4.t() * u1, w) == r4.t() * gm.apply(u1, w)


def expanded_sym_apply(gmap: GeneratorMap, elements):
    """Reference Sym^m apply: all 2^m terms of the multilinear expansion."""
    out = gmap.target.zero()
    for bits in itertools.product((0, 1), repeat=len(elements)):
        coeff = gmap.source.module.ring.one()
        for elem, bit in zip(elements, bits):
            coeff = coeff * (elem.g if bit else elem.f)
        if not coeff.is_zero:
            out = out + coeff * gmap.images[sum(bits)]
    return out


def random_coefficient(rng: random.Random, r: NodeRing):
    return r.from_terms([((rng.randrange(3), rng.randrange(3), rng.randrange(3)), rng.randrange(1, 97))
                         for _ in range(rng.randrange(1, 4))])


def random_element(rng: random.Random, pres):
    """Module element with nonzero f and, off the free module, nonzero g."""
    while True:
        elem = pres.element(random_coefficient(rng, pres.ring), random_coefficient(rng, pres.ring))
        if not elem.f.is_zero and (pres.is_free or not elem.g.is_zero):
            return elem


def test_sym_apply_matches_expansion():
    rng = random.Random(20170)
    for l in (1, 2, 3, 4):
        r = ring(l)
        mods = [make_module(r, 0, 0)] + [make_module(r, i, l - i) for i in range(1, l)]
        for pres in mods:
            for m in range(1, 7):
                gm = sym_power_map(pres, m)
                for _ in range(2):
                    args = [random_element(rng, pres) for _ in range(m)]
                    assert gm.apply(*args) == expanded_sym_apply(gm, args)


def test_monomial_basis_shape():
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    assert monomial_basis(m13, 0) == ((1, 0), (2, 0))
    assert monomial_basis(m13, 2) == ((1, 2), (2, 2))
    free = make_module(r4, 0, 0)
    assert monomial_basis(free, 0) == ((1, 0),)
    for pres in (free, m13):
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            monomial_basis(pres, -1)


def test_cokernel_length_frozen_cases():
    # r = 2: top power map squares M(1,1) down to the free tier
    r2 = ring(2, p=5)
    gm = power_map(r2, 2, 2, 1, 1, 1)
    assert cokernel_length(gm) == 1
    # r = 3: cube of M(1,2) down to free
    r3 = ring(3, p=7)
    gm3 = power_map(r3, 3, 3, 1, 1, 2)
    assert cokernel_length(gm3) == 2
    # free source tier: nothing to measure
    r2b = ring(2, p=5)
    gm_free = power_map(r2b, 4, 2, 1, 1, 1)
    assert gm_free.source.module.is_free
    assert cokernel_length(gm_free) == 0


def test_cokernel_length_deep_case():
    # d/e = 12 with l = 2: stabilization happens well past max(i, j, l)
    r2 = ring(2, p=13)
    gm = power_map(r2, 12, 12, 1, 1, 1)
    assert cokernel_length(gm) == 11


def test_cokernel_length_non_monomial_graded_map():
    # multiplication by f on the free module: the cokernel is R/(f) with x*y = 0 at t = 0,
    # with K-bases 1, x for f = x + y and 1, x, y, x^2 for f = x^2 + 3y^2
    r2 = ring(2)
    free = make_module(r2, 0, 0)
    for f, length in ((r2.x() + r2.y(), 2), (r2.x(2) + 3 * r2.y(2), 4)):
        gm = GeneratorMap(LinearSource(free), free, {1: free.element(f)})
        assert cokernel_length(gm) == length


@pytest.mark.parametrize("p", [5, 13, 97])
def test_cokernel_length_mixed_degree_maps(p):
    # multiplication by f on the free module at l = 2: the cokernel is R/(f) with
    # x*y = 0, and f times x^a or y^b leaves one pure power, so cancellation runs
    # across slices: x + y^2 kills x^2.., y^3.. and identifies x with -y^2 (1, y, y^2)
    r2 = ring(2, p=p)
    x, y = r2.x, r2.y
    free = make_module(r2, 0, 0)
    for f, length in ((x() + y(), 2), (x(2) + 3 * y(2), 4), (x() + y(2), 3),
                      (x(3) + y(), 4), (x(2) + y(3), 5)):
        gm = GeneratorMap(LinearSource(free), free, {1: free.element(f)})
        assert cokernel_length(gm) == length


def test_cokernel_length_raises_on_infinite_cokernel():
    # the zero map and multiplication by t both vanish at t = 0, so the
    # cokernel is all of M(1,1): infinite-dimensional, never a length
    r2 = ring(2)
    m11 = make_module(r2, 1, 1)
    keys = m11.generator_keys
    zero = GeneratorMap(LinearSource(m11), m11, {k: m11.zero() for k in keys})
    by_t = GeneratorMap(LinearSource(m11), m11, {k: r2.t() * m11.generator(k) for k in keys})
    for gm in (zero, by_t):
        assert check_well_defined(gm) is None
        with pytest.raises(RuntimeError, match="did not stabilize"):
            cokernel_length(gm)


# -- element and the shared sum against term-by-term references ----------


def _reference_element(pres, c1, c2):
    """c1 * e1 + c2 * e2 by collecting every rewritten term, then from_terms."""
    ring = pres.ring
    if pres.is_free:
        return ModuleElement(pres, c1 + c2, ring.zero())
    f_raw, g_raw = [], []
    for (xe, ye, te), c in c1.terms.items():
        if ye == 0:
            f_raw.append(((xe, 0, te), c))
        else:
            g_raw.append(((0, ye - 1, te + pres.i), c))
    for (xe, ye, te), c in c2.terms.items():
        if xe == 0:
            g_raw.append(((0, ye, te), c))
        else:
            f_raw.append(((xe - 1, 0, te + pres.j), c))
    return ModuleElement(pres, ring.from_terms(f_raw), ring.from_terms(g_raw))


raw_terms = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                               st.integers(-200, 200)), max_size=6)


def _module(p: int, l: int, k: int):
    """M(0, 0) for k = 0, else M(k, l - k), over the node ring at l and p."""
    k %= l
    return make_module(ring(l, p), k, l - k if k else 0)


def _coeff(r: NodeRing, raw):
    return r.from_terms([((xe, ye, te), c) for xe, ye, te, c in raw])


@given(st.sampled_from([3, 5, 97]), st.integers(1, 6), st.integers(0, 5), raw_terms, raw_terms)
# y on e1 moves to t^i on e2 and cancels -t there mod 3
@example(3, 2, 1, [(0, 1, 0, 1)], [(0, 0, 1, 2)])
@settings(max_examples=300, deadline=None)
def test_element_matches_reference(p, l, k, raw1, raw2):
    pres = _module(p, l, k)
    c1, c2 = _coeff(pres.ring, raw1), _coeff(pres.ring, raw2)
    got = pres.element(c1, c2)
    assert got == _reference_element(pres, c1, c2)
    assert 0 not in got.f.terms.values() and 0 not in got.g.terms.values()


def _termwise_apply(gmap: GeneratorMap, elements):
    """Reference apply: every term of the multilinear expansion added as coeff * image."""
    tensor = isinstance(gmap.source, TensorSource)
    out = gmap.target.zero()
    for choice in itertools.product((1, 2), repeat=len(elements)):
        coeff = gmap.target.ring.one()
        for elem, k in zip(elements, choice):
            coeff = coeff * (elem.f if k == 1 else elem.g)
        if not coeff.is_zero:
            out = out + coeff * gmap.images[choice if tensor else choice.count(2)]
    return out


def _draw_element(draw, pres):
    """Module element that may sit on one generator or be zero."""
    return pres.element(_coeff(pres.ring, draw(raw_terms)), _coeff(pres.ring, draw(raw_terms)))


@st.composite
def maps_and_arguments(draw):
    """A product map or a Sym^m map (l <= 6, m <= 5) with random arguments."""
    p = draw(st.sampled_from([5, 97]))
    l = draw(st.integers(1, 6))
    a = _module(p, l, draw(st.integers(0, 5)))
    if draw(st.booleans()):
        gmap = product_map(a, _module(p, l, draw(st.integers(0, 5))))
        modules = (gmap.source.left, gmap.source.right)
    else:
        gmap = sym_power_map(a, draw(st.integers(1, 5)))
        modules = (a,) * gmap.source.power
    return gmap, [_draw_element(draw, m) for m in modules]


@given(maps_and_arguments())
@settings(max_examples=200, deadline=None)
def test_apply_matches_termwise_sum(case):
    gmap, elements = case
    assert gmap.apply(*elements) == _termwise_apply(gmap, elements)


def _reference_violation(gmap: GeneratorMap):
    """First (description, defect) with the defect summed term by term, or None."""
    for description, rel in gmap.source.relations():
        defect = gmap.target.zero()
        for coeff, key in rel:
            defect = defect + coeff * gmap.images[key]
        if not defect.is_zero:
            return description, defect
    return None


@given(maps_and_arguments(), st.data())
@settings(max_examples=150, deadline=None)
def test_check_well_defined_matches_termwise_defects(case, data):
    gmap, _ = case
    key = data.draw(st.sampled_from(sorted(gmap.images)))
    images = dict(gmap.images)
    images[key] = images[key] + _draw_element(data.draw, gmap.target)
    broken = GeneratorMap(gmap.source, gmap.target, images)
    violation = check_well_defined(broken)
    expected = _reference_violation(broken)
    if expected is None:
        assert violation is None
    else:
        assert (violation.description, violation.defect) == expected


def test_apply_and_each_relation_normalize_once(monkeypatch):
    """Each c * image product passes through the rewrite once, as it is formed.

    apply calls neither ModulePresentation.element nor a ring __add__: the
    products are gathered straight into the result's term dicts.  The Sym^4
    arguments lie on one generator each, so its coefficient recurrence adds
    nothing either; check_well_defined gathers each relation's products the
    same way.
    """
    rng = random.Random(1717)
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    on_one = [ModuleElement(a, e.f, r4.zero()) if k % 2 else ModuleElement(a, r4.zero(), e.g)
              for k, e in enumerate(random_element(rng, a) for _ in range(4))]
    cases = [(product_map(a, b), [random_element(rng, a), random_element(rng, b)]),
             (sym_power_map(a, 4), on_one)]
    element, add = ModulePresentation.element, TermElement.__add__
    mul, gather = RingElement.__mul__, ModulePresentation._gather
    elements, sums, products, gathered, image_parts = [], [], [], [], set()

    def counted_element(self, c1, c2=0):
        elements.append(self)
        return element(self, c1, c2)

    def counted_add(self, other):
        sums.append(self)
        return add(self, other)

    def counted_mul(self, other):
        out = mul(self, other)
        if id(other) in image_parts:  # c * (image part), kept alive so ids stay unique
            products.append(out)
        return out

    def counted_gather(self, f, g, terms, on_e2):
        gathered.append(terms)
        return gather(self, f, g, terms, on_e2)

    monkeypatch.setattr(ModulePresentation, "element", counted_element)
    monkeypatch.setattr(TermElement, "__add__", counted_add)
    monkeypatch.setattr(RingElement, "__mul__", counted_mul)
    monkeypatch.setattr(ModulePresentation, "_gather", counted_gather)
    for gmap, args in cases:
        image_parts.clear()
        image_parts.update(id(part) for img in gmap.images.values() for part in (img.f, img.g))
        for run in (lambda: gmap.apply(*args), lambda: check_well_defined(gmap)):
            for seen in (elements, sums, products, gathered):
                seen.clear()
            run()
            assert products
            assert sorted(map(id, gathered)) == sorted(id(out.terms) for out in products)
            assert len({id(terms) for terms in gathered}) == len(gathered)
            assert elements == [] and sums == []


# -- _combine against the old sum-then-element reference -----------------


def _reference_combine(target, pairs):
    """The former _combine: ring sums of c * image parts, then one element call."""
    f = g = target.ring.zero()
    for c, img in pairs:
        if not (c.is_zero or img.f.is_zero):
            f = f + c * img.f
        if not (c.is_zero or img.g.is_zero):
            g = g + c * img.g
    return target.element(f, g)


def _reference_apply(gmap: GeneratorMap, elements):
    images = gmap.images
    return _reference_combine(gmap.target, ((c, images[key])
                                            for key, c in gmap.source.coefficients(*elements)))


def _reference_check(gmap: GeneratorMap):
    """First (description, defect) of the former check_well_defined, or None."""
    for description, rel in gmap.source.relations():
        defect = _reference_combine(gmap.target, ((coeff, gmap.images[key]) for coeff, key in rel))
        if not defect.is_zero:
            return description, defect
    return None


def _same_terms(got: ModuleElement, expected: ModuleElement) -> bool:
    return (got.presentation is expected.presentation and got.f.terms == expected.f.terms
            and got.g.terms == expected.g.terms)


def _random_argument(rng: random.Random, pres):
    """Zero, on one generator, or a multi-term element on both."""
    kind = rng.randrange(4)
    if kind == 0:
        return pres.zero()
    elem = random_element(rng, pres)
    if kind == 1:
        return ModuleElement(pres, elem.f, pres.ring.zero())
    if kind == 2 and not pres.is_free:
        return ModuleElement(pres, pres.ring.zero(), elem.g)
    return elem


def _random_module(rng: random.Random, r: NodeRing):
    k = rng.randrange(r.l)
    return make_module(r, k, r.l - k if k else 0)


def _random_maps_and_arguments(rng: random.Random, p: int):
    """Product, Sym^m (m <= 4) and linear maps over l <= 5, with their arguments.

    Some images are shifted by a random element, so that some maps break a
    relation; linear images are random, onto free and standard targets.
    """
    r = ring(rng.randrange(1, 6), p)
    a = _random_module(rng, r)
    kind = rng.randrange(3)
    if kind == 0:
        gmap = product_map(a, _random_module(rng, r))
        modules = (gmap.source.left, gmap.source.right)
    elif kind == 1:
        gmap = sym_power_map(a, rng.randrange(1, 5))
        modules = (a,) * gmap.source.power
    else:
        target = _random_module(rng, r)
        gmap = GeneratorMap(LinearSource(a), target,
                            {k: random_element(rng, target) for k in a.generator_keys})
        modules = (a,)
    if kind < 2 and rng.randrange(2):
        images = dict(gmap.images)
        key = rng.choice(sorted(images))
        images[key] = images[key] + random_element(rng, gmap.target)
        gmap = GeneratorMap(gmap.source, gmap.target, images)
    return gmap, [_random_argument(rng, m) for m in modules]


@pytest.mark.parametrize("p", [5, 97])
def test_apply_and_check_well_defined_match_the_sum_then_element_reference(p):
    rng = random.Random(2800 + p)
    violations = zeros = 0
    for _ in range(300):
        gmap, args = _random_maps_and_arguments(rng, p)
        got, expected = gmap.apply(*args), _reference_apply(gmap, args)
        assert _same_terms(got, expected), (gmap, args)
        assert 0 not in got.f.terms.values() and 0 not in got.g.terms.values()
        zeros += got.is_zero
        violation, reference = check_well_defined(gmap), _reference_check(gmap)
        if reference is None:
            assert violation is None
        else:
            violations += 1
            assert violation.description == reference[0]
            assert _same_terms(violation.defect, reference[1])
    assert violations and zeros  # both branches were reached


def test_apply_cancels_mod_p_to_the_zero_normal_form():
    # at p = 5, t * (2u) + t * (3u) = 5tu = 0, and t * u + (-t) * u = 0 at any p
    for p, (c1, c2), (k1, k2) in ((5, (1, 1), (2, 3)), (97, (1, -1), (1, 1))):
        r2 = ring(2, p)
        m11 = make_module(r2, 1, 1)
        u = random_element(random.Random(p), m11)
        gmap = GeneratorMap(LinearSource(m11), m11, {1: k1 * u, 2: k2 * u})
        arg = m11.element(c1 * r2.t(), c2 * r2.t())
        got = gmap.apply(arg)
        assert got.f.terms == {} and got.g.terms == {}
        assert _same_terms(got, _reference_apply(gmap, [arg]))


# -- the sparse Sym^m recurrence ----------------------------------------


def _reference_sym_coefficients(source: SymPowerSource, elements):
    """The dense recurrence over all m + 1 coefficients, zero entries dropped."""
    ring = source.module.ring
    coeffs = [ring.one()]
    for m in elements:
        nxt = [c * m.f for c in coeffs] + [ring.zero()]
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c * m.g
        coeffs = nxt
    return {k: c for k, c in enumerate(coeffs) if not c.is_zero}


@st.composite
def sym_sources_and_arguments(draw):
    """Sym^m of a free or standard module (l <= 5, m <= 6, p in {3, 97}) and m arguments.

    Each argument is zero, lies on e1 or on e2 only, or lies on both.
    """
    pres = _module(draw(st.sampled_from([3, 97])), draw(st.integers(1, 5)), draw(st.integers(0, 4)))
    zero = pres.ring.zero()
    args = []
    for _ in range(draw(st.integers(1, 6))):
        elem = _draw_element(draw, pres)
        kind = draw(st.sampled_from(["zero", "e1", "e2", "both"]))
        args.append(ModuleElement(pres, elem.f if kind in ("e1", "both") else zero,
                                  elem.g if kind in ("e2", "both") else zero))
    return SymPowerSource(pres, len(args)), args


@given(sym_sources_and_arguments())
@settings(max_examples=300, deadline=None)
def test_sym_coefficients_match_dense_recurrence(case):
    source, args = case
    got = dict(source.coefficients(*args))
    assert got == _reference_sym_coefficients(source, args)
    assert not any(c.is_zero for c in got.values())
    assert set(got) <= set(source.keys)


def test_sym_coefficients_drop_cancelled_entries():
    # (e1 + e2)(e1 - e2) = e1^2 - e2^2: the e1 e2 coefficient cancels
    r3 = ring(3, p=3)
    m12 = make_module(r3, 1, 2)
    got = dict(SymPowerSource(m12, 2).coefficients(m12.element(1, 1), m12.element(1, -1)))
    assert got == {0: r3.one(), 2: -r3.one()}


def test_sym_coefficients_on_one_generator_are_linear_in_m(monkeypatch):
    # the dense recurrence made 1 + 2 + ... + 8 = 36 products and additions here
    r5 = ring(5)
    m14 = make_module(r5, 1, 4)
    gmap = sym_power_map(m14, 8)
    args = [m14.element(0, r5.y(k % 3) + r5.t(k)) for k in range(8)]
    assert all(a.f.is_zero and not a.g.is_zero for a in args)
    products, additions = [], []

    def counting(log, method):
        def wrapper(self, other):
            log.append(1)
            return method(self, other)
        return wrapper

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(RingElement, name, counting(products, RingElement.__dict__[name]))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(TermElement, name, counting(additions, TermElement.__dict__[name]))
    coeffs = dict(gmap.source.coefficients(*args))
    monkeypatch.undo()
    assert len(products) <= 8
    assert not additions
    assert list(coeffs) == [8]
    assert gmap.apply(*args) == expanded_sym_apply(gmap, args)


def test_sym_apply_rejects_a_target_over_another_ring():
    source, target = make_module(ring(2), 1, 1), make_module(ring(3), 1, 2)
    gmap = GeneratorMap(SymPowerSource(source, 2), target,
                        {k: target.generator(1 + k % 2) for k in range(3)})
    with pytest.raises(ValueError, match="elements live in different rings"):
        gmap.apply(source.generator(1), source.generator(2))


def test_coefficients_and_factors_over_another_ring_are_refused():
    # node rings are interned, so an equal ring built apart is the same ring
    pres = make_module(ring(4), 1, 3)
    assert pres.element(ring(4).x(), ring(4).y()) == pres.element(pres.ring.x(), pres.ring.y())
    for other in (ring(2), ring(4, p=5)):
        with pytest.raises(ValueError, match="coefficients live in a different ring"):
            pres.element(other.x())
        with pytest.raises(ValueError, match="coefficients live in a different ring"):
            pres.element(0, other.y())
    with pytest.raises(ValueError, match="factors live over different node rings"):
        product_map(pres, make_module(ring(4, p=5), 1, 3))


def test_linear_and_tensor_apply_reject_a_target_over_another_ring():
    # a lone unit coefficient over the source's ring must not pass the image through
    source, other = make_module(ring(2), 0, 0), make_module(ring(2), 1, 1)
    target = make_module(ring(3), 1, 2)
    linear = GeneratorMap(LinearSource(source), target, {1: target.generator(1)})
    with pytest.raises(ValueError, match="elements live in different rings"):
        linear.apply(source.generator(1))
    tensor = GeneratorMap(TensorSource(source, other), target,
                          {(1, k): target.generator(k) for k in (1, 2)})
    for k in (1, 2):
        with pytest.raises(ValueError, match="elements live in different rings"):
            tensor.apply(source.generator(1), other.generator(k))


# -- shared constants and the lone-unit pass-through ---------------------


def test_units_zeros_and_generators_are_built_once():
    for l in (1, 3, 4):
        r = ring(l)
        for rr in (r, SpinChart(r.field, l, 1)):
            assert rr.one() is rr.one() and rr.zero() is rr.zero()
            assert rr.one() == 1 and rr.zero() == 0
        for k in range(l):
            pres = _module(97, l, k)
            assert pres.generator_keys is pres.generator_keys
            for key in pres.generator_keys:
                assert pres.generator(key) is pres.generator(key)
            gens = [pres.generator(key) for key in pres.generator_keys]
            assert gens == [pres.element(1, 0), pres.element(0, 1)][:len(gens)]
            for bad in (3, (1,), "1", [1]):
                with pytest.raises(ValueError, match=re.escape(f"no generator {bad} on {pres!r}")):
                    pres.generator(bad)


def test_apply_on_generators_returns_the_image_itself():
    r4 = ring(4)
    free = make_module(r4, 0, 0)
    for a in (free, make_module(r4, 1, 3), make_module(r4, 2, 2)):
        gmap = product_map(a, free)
        for key in a.generator_keys:
            assert gmap.apply(a.generator(key), free.generator(1)) is gmap.images[(key, 1)]
        sym = sym_power_map(a, 3)
        for key in sym.source.keys:
            args = [a.generator(1 + (n < key)) for n in range(3)]
            assert sym.apply(*args) is sym.images[key]
    # a unit built apart is still the unit; a coefficient other than 1 builds a new element
    m13 = make_module(r4, 1, 3)
    gmap = product_map(m13, free)
    assert gmap.apply(m13.element(r4.const(1), 0), free.element(1)) is gmap.images[(1, 1)]
    doubled = gmap.apply(m13.element(2, 0), free.generator(1))
    assert doubled is not gmap.images[(1, 1)] and doubled == 2 * gmap.images[(1, 1)]


def expanded_tensor_apply(gmap: GeneratorMap, elements):
    """Reference tensor apply: the four products of factor coefficients, each times its image."""
    a, b = elements
    out = gmap.target.zero()
    for ka, ca in ((1, a.f), (2, a.g)):
        for kb, cb in ((1, b.f), (2, b.g)):
            coeff = ca * cb
            if not coeff.is_zero:
                out = out + coeff * gmap.images[(ka, kb)]
    return out


def expanded_apply(gmap: GeneratorMap, elements):
    """Term-by-term reference apply for linear, tensor and Sym^m maps."""
    source = gmap.source
    if isinstance(source, SymPowerSource):
        return expanded_sym_apply(gmap, elements)
    if isinstance(source, TensorSource):
        return expanded_tensor_apply(gmap, elements)
    (m,) = elements
    out = gmap.target.zero()
    for key, coeff in ((1, m.f), (2, m.g)):
        if not coeff.is_zero:
            out = out + coeff * gmap.images[key]
    return out


def _draw_argument(draw, pres):
    """Zero, a generator, the unit on both generators, or random parts with some units."""
    r = pres.ring
    kind = draw(st.sampled_from(["zero", "e1", "e2", "units", "unit+random", "random"]))
    if kind == "zero":
        return pres.zero()
    if kind in ("e1", "e2"):
        return pres.generator(1 if kind == "e1" or pres.is_free else 2)
    if kind == "units":
        return pres.element(1, 1)
    c1, c2 = _coeff(r, draw(raw_terms)), _coeff(r, draw(raw_terms))
    if kind == "unit+random":
        c1, c2 = draw(st.sampled_from([(r.one(), c2), (c1, r.one())]))
    return pres.element(c1, c2)


@st.composite
def all_maps_and_arguments(draw):
    """A linear, product or Sym^m map (l <= 5, m <= 4) over free and standard modules."""
    p = draw(st.sampled_from([5, 97]))
    l = draw(st.integers(1, 5))
    a = _module(p, l, draw(st.integers(0, 4)))
    kind = draw(st.sampled_from(["linear", "tensor", "sym"]))
    if kind == "linear":
        target = _module(p, l, draw(st.integers(0, 4)))
        images = {k: _draw_argument(draw, target) for k in a.generator_keys}
        return GeneratorMap(LinearSource(a), target, images), [_draw_argument(draw, a)]
    if kind == "tensor":
        gmap = product_map(a, _module(p, l, draw(st.integers(0, 4))))
        modules = (gmap.source.left, gmap.source.right)
    else:
        gmap = sym_power_map(a, draw(st.integers(1, 4)))
        modules = (a,) * gmap.source.power
    return gmap, [_draw_argument(draw, m) for m in modules]


@given(all_maps_and_arguments())
@settings(max_examples=300, deadline=None)
def test_apply_matches_the_term_by_term_expansion(case):
    gmap, elements = case
    got = gmap.apply(*elements)
    assert _same_terms(got, expanded_apply(gmap, elements))
    pairs = gmap.source.coefficients(*elements)
    if len(pairs) == 1 and pairs[0][1] == 1:
        assert got is gmap.images[pairs[0][0]]


# -- relations built once per module -------------------------------------


def test_relations_are_built_once_and_read_by_every_source():
    for l in (1, 3, 4):
        for k in range(l):
            pres = _module(97, l, k)
            rels = pres.relations()
            assert rels is pres.relations()
            assert [rel for _, rel in LinearSource(pres).relations()] == list(rels)
            # every source hands out the module's own coefficient objects
            coeffs = {id(c) for rel in rels for c, _ in rel}
            for source in (LinearSource(pres), TensorSource(pres, pres), SymPowerSource(pres, 3)):
                assert all(id(c) in coeffs for _, rel in source.relations() for c, _ in rel)


def test_check_well_defined_builds_no_relation_coefficient_and_checks_every_relation(monkeypatch):
    import spinalg.modules as modules

    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    identity = GeneratorMap(LinearSource(a), a, {k: a.generator(k) for k in a.generator_keys})
    maps = [identity, product_map(a, b), sym_power_map(a, 3), power_map(r4, 4, 4, 2, 1, 3)]
    for gm in maps:
        assert check_well_defined(gm) is None
    built, combined = [], []
    from_terms, combine = NodeRing.from_terms, modules._combine

    def counting_from_terms(self, raw):
        built.append(self)
        return from_terms(self, raw)

    def counting_combine(target, pairs, images):
        combined.append(target)
        return combine(target, pairs, images)

    monkeypatch.setattr(NodeRing, "from_terms", counting_from_terms)
    monkeypatch.setattr(modules, "_combine", counting_combine)
    for gm in maps:
        for _ in range(2):  # no verdict is kept: every relation is pushed through each time
            del combined[:]
            assert check_well_defined(gm) is None
            assert len(combined) == len(gm.source.relations()) > 0
    assert built == []


# -- argument checks and printed forms -----------------------------------


def test_elements_of_different_modules_do_not_add():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError, match="^elements live in different modules$"):
            op(a.generator(1), b.generator(1))


def test_module_elements_refuse_a_non_ring_scalar():
    e1 = make_module(ring(4), 1, 3).generator(1)
    assert e1.__rmul__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        "t" * e1


def test_equal_module_elements_hash_equal():
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    elem = m13.element(r4.y(), r4.x())
    assert hash(elem) == hash((m13, elem.f, elem.g))
    assert len({elem, m13.element(r4.y()) + m13.element(0, r4.x()), m13.zero(), m13.zero()}) == 2


def test_zero_module_element_prints_as_zero():
    r4 = ring(4)
    for pres in (make_module(r4, 0, 0), make_module(r4, 1, 3)):
        assert repr(pres.zero()) == "0"
        assert repr(pres.generator(1) - pres.generator(1)) == "0"


def test_sources_refuse_arguments_off_their_modules():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    with pytest.raises(ValueError, match="^argument lives off the source module$"):
        LinearSource(a).coefficients(b.generator(1))
    with pytest.raises(ValueError, match="^arguments live off the source modules$"):
        TensorSource(a, b).coefficients(b.generator(1), b.generator(1))
    with pytest.raises(ValueError, match="^arguments live off the source modules$"):
        TensorSource(a, b).coefficients(a.generator(1), a.generator(1))
    sym = SymPowerSource(a, 2)
    for args in ((a.generator(1),), (a.generator(1),) * 3):
        with pytest.raises(ValueError, match=r"^expected 2 arguments$"):
            sym.coefficients(*args)
    with pytest.raises(ValueError, match="^argument lives off the source module$"):
        sym.coefficients(a.generator(1), b.generator(2))


def test_generator_map_refuses_images_off_its_keys_or_target():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    with pytest.raises(ValueError, match=re.escape("images must cover exactly the keys (1, 2)")):
        GeneratorMap(LinearSource(a), a, {1: a.generator(1)})
    with pytest.raises(ValueError, match=re.escape("images must cover exactly the keys (1, 2)")):
        GeneratorMap(LinearSource(a), a, {1: a.zero(), 2: a.zero(), 3: a.zero()})
    with pytest.raises(ValueError, match="^image for 2 lives off the target module$"):
        GeneratorMap(LinearSource(a), a, {1: a.generator(1), 2: b.generator(2)})


def test_relation_violation_prints_its_relation_and_defect():
    r4 = ring(4)
    a, b = make_module(r4, 1, 3), make_module(r4, 2, 2)
    gm = product_map(a, b)
    bad = dict(gm.images)
    bad[(1, 2)], bad[(2, 1)] = bad[(2, 1)], bad[(1, 2)]
    broken = GeneratorMap(TensorSource(a, b), gm.target, bad)
    violation = check_well_defined(broken)
    assert repr(violation) == "RelationViolation(left relation 0 x gen 1: defect (96*t^2 + t^3)*e1)"
    with pytest.raises(ValueError) as info:
        cokernel_length(broken)
    assert str(info.value) == f"map is not well defined: {violation!r}"
