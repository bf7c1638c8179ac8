"""cokernel_length against the ring-product row build it replaced, and a guard on its layer.

cokernel_length writes each image row at t = 0 as an exponent shift of the
once-specialized image.  _reference_cokernel_length keeps the earlier
build: each row is the generic-t module product mu * image for
mu = 1, x, y, x^2, y^2, ..., specialized afterwards.  Both must hand
_linalg.row_reduce the same rows in the same order, and so agree on every
length, finite or not.
"""
from __future__ import annotations

from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from spinalg import _linalg
from spinalg.field import FieldConfig
from spinalg.modules import (
    GeneratorMap,
    LinearSource,
    ModulePresentation,
    check_well_defined,
    cokernel_length,
    monomial_basis,
)
from spinalg.products import power_map
from spinalg.ring import NodeRing, RingElement


def _vectorize(elem, index: dict[tuple[int, int], int]) -> list[int]:
    """Coordinates of a t-specialized element in the monomial basis slices."""
    vec = [0] * len(index)
    for (xe, ye, _te), c in elem.f.terms.items():
        vec[index[(1, xe) if ye == 0 else (2, ye)]] = c
    for (_xe, ye, _te), c in elem.g.terms.items():
        vec[index[2, ye]] = c
    return vec


def _reference_cokernel_length(gmap: GeneratorMap) -> int:
    """The multiplier loop: rows (mu * image).specialize(0), multiplier-major, zero rows skipped.

    It takes the map as well defined; cokernel_length checks that for both.
    """
    pres = gmap.target
    ring = pres.ring
    p = ring.field.p
    images = [img.specialize(0) for img in gmap.images.values()]
    img_degree = max((max(im.f.xy_degree(), im.g.xy_degree()) for im in images), default=0)
    cap = max(pres.i, pres.j, ring.l, img_degree) + 8
    basis = [key for d in range(cap + img_degree + 1) for key in monomial_basis(pres, d)]
    index = {key: n for n, key in enumerate(basis)}
    multipliers = [ring.one()]
    for a in range(1, cap + 1):
        multipliers += [ring.x(a), ring.y(a)]
    rows = [_vectorize(prod, index) for mu in multipliers for im in images
            if not (prod := (mu * im).specialize(0)).is_zero]
    _, pivots = _linalg.row_reduce(rows, p)
    q = prev_q = zeros = 0
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


def _rows_and_outcome(length_of, gmap: GeneratorMap) -> tuple[list, int | None]:
    """The image rows length_of hands to _linalg.row_reduce, and its length.

    The length is None when the search raised that it did not stabilize.
    """
    seen, row_reduce = [], _linalg.row_reduce

    def recording(rows, p):
        seen.append(rows)
        return row_reduce(rows, p)

    _linalg.row_reduce = recording
    try:
        return seen, length_of(gmap)
    except RuntimeError as err:
        assert "did not stabilize" in str(err)
        return seen, None
    finally:
        _linalg.row_reduce = row_reduce


def _tier_maps(max_r: int, p: int):
    """Every tier power map (r, l | r, top pair over l, e | d | r) at field prime p."""
    for r in range(1, max_r + 1):
        for l in (l for l in range(1, r + 1) if r % l == 0):
            ring = NodeRing(FieldConfig(p, 1), l)
            for top in [(0, 0)] + [(i, l - i) for i in range(1, l) if gcd(i, l) == 1]:
                for d in (d for d in range(1, r + 1) if r % d == 0):
                    for e in (e for e in range(1, d + 1) if d % e == 0):
                        yield power_map(ring, r, d, e, *top)


@pytest.mark.parametrize("p", [5, 97])
def test_cokernel_length_matches_the_reference_on_every_tier_map(p):
    maps = list(_tier_maps(10, p))
    assert len(maps) == 474
    for gmap in maps:
        assert _rows_and_outcome(cokernel_length, gmap) == _rows_and_outcome(
            _reference_cokernel_length, gmap), gmap


def _free_source_map(target: ModulePresentation, f: RingElement, g: RingElement) -> GeneratorMap:
    free = ModulePresentation(target.ring, 0, 0)
    return GeneratorMap(LinearSource(free), target, {1: target.element(f, g)})


@st.composite
def free_source_maps(draw) -> GeneratorMap:
    """A map out of the free module (no relations, so always well defined).

    Its one image has up to three terms x^e t^c or y^e t^c on each
    generator, with e <= 3 and c <= 1.  Terms with t vanish at t = 0, and
    so does a branch that the image misses, so both finite and infinite
    cokernels are drawn.
    """
    p = draw(st.sampled_from((5, 13, 97)))
    l = draw(st.integers(min_value=1, max_value=4))
    ring = NodeRing(FieldConfig(p, 1), l)
    i = draw(st.integers(min_value=0, max_value=l - 1))
    target = ModulePresentation(ring, i, l - i if i else 0)
    term = st.tuples(st.integers(0, 3), st.booleans(), st.sampled_from((0, 0, 0, 1)),
                     st.integers(1, p - 1))
    f, g = (ring.from_terms((((0, e, te) if on_y else (e, 0, te)), c)
                            for e, on_y, te, c in draw(st.lists(term, max_size=3)))
            for _ in range(2))
    return _free_source_map(target, f, g)


_R2 = NodeRing(FieldConfig(97, 1), 2)


@given(free_source_maps())
@example(_free_source_map(ModulePresentation(_R2, 1, 1), _R2.zero(), _R2.t()))  # infinite
@example(_free_source_map(ModulePresentation(_R2, 0, 0), _R2.one(), _R2.zero()))  # the unit: 0
@example(_free_source_map(ModulePresentation(_R2, 0, 0), _R2.x() + _R2.y(2), _R2.zero()))  # 3
@example(_free_source_map(ModulePresentation(_R2, 1, 1), _R2.x(2) + 2, _R2.y(3)))  # 6
@settings(max_examples=60, deadline=None)
def test_cokernel_length_matches_the_reference_on_maps_out_of_the_free_module(gmap):
    assert _rows_and_outcome(cokernel_length, gmap) == _rows_and_outcome(_reference_cokernel_length, gmap)


def test_cokernel_rows_add_no_ring_product_to_the_well_definedness_check(monkeypatch):
    """Every ring product in cokernel_length is check_well_defined's; each image part is specialized once."""
    gmap = power_map(NodeRing(FieldConfig(7, 1), 3), 3, 3, 1, 1, 2)
    counts = Counter()

    def counting(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)
        return wrapper

    for name, counter in (("__mul__", "mul"), ("__rmul__", "mul"), ("specialize", "specialize")):
        monkeypatch.setattr(RingElement, name, counting(counter, getattr(RingElement, name)))
    assert check_well_defined(gmap) is None
    checked = counts.copy()
    counts.clear()
    assert cokernel_length(gmap) == 2
    assert checked["mul"] > 0 and checked["specialize"] == 0
    assert counts["mul"] == checked["mul"]
    assert counts["specialize"] == 2 * len(gmap.images)
