from __future__ import annotations

import itertools
import random

import pytest

from spinalg.field import FieldConfig
from spinalg.modules import (
    GeneratorMap,
    LinearSource,
    SymPowerSource,
    TensorSource,
    check_well_defined,
    cokernel_length,
    graded_dims,
    make_module,
    monomial_basis,
)
from spinalg.products import power_map, product_map, sym_power_map
from spinalg.ring import NodeRing, TMode


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


def test_graded_dims_at_zero():
    r4 = ring(4)
    m13 = make_module(r4, 1, 3)
    dims = graded_dims(m13, TMode.specialized(0), 3)
    assert dims == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        graded_dims(m13, TMode.generic(), 3)


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


def test_cokernel_requires_specialized_zero():
    r2 = ring(2, p=5)
    gm = power_map(r2, 2, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        cokernel_length(gm, TMode.generic())
    with pytest.raises(ValueError):
        cokernel_length(gm, TMode.specialized(1))
