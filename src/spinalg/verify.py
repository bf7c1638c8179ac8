"""Property suites shared by the command line and the acceptance tests.

Each suite yields one entry per case: None, or a failure description.
`SUITES` gives every suite its report name and its scale in `max_r`, and
`Suite.run` counts and collects, for `spinalg verify-algebra` and the
tests alike.  Randomized suites draw from a seeded generator; nothing
here depends on hash order or wall time.
"""
from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import product as iproduct
from math import gcd
from typing import NamedTuple

from ._record import Record
from .dualgraph import (
    DualGraph,
    deformation_dimension,
    enumerate_assignments,
    graph_genus,
    spin_chi,
    stability_check,
    vertex_excess,
)
from .field import FieldConfig
from .modules import (
    GeneratorMap,
    ModulePresentation,
    TensorSource,
    check_well_defined,
    cokernel_length,
    make_module,
)
from .oracle import oracle_product_images, oracle_sym_power_images
from .products import (
    automorphisms,
    compatibility_check,
    dual_pairing,
    power_map,
    product_map,
    sym_power_map,
)
from .resolution import DECIDING_DEGREE, resolution_exact_check
from .ring import LaurentRing, NodeRing

Cases = Iterator[str | None]


class SuiteResult(Record):
    """One suite's report line: name, verdict, case count and failure messages."""

    __slots__ = _fields = ("name", "passed", "cases", "failures")
    # mutable and so unhashable, unlike the other records
    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, name: str, passed: bool, cases: int, failures: list[str] | None = None):
        self.name = name
        self.passed = passed
        self.cases = cases
        self.failures = [] if failures is None else failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"suite {self.name}: {status} ({self.cases} cases)"
        if self.failures:
            out += "".join(f"\n  - {msg}" for msg in self.failures[:10])
        return out


def _top_pairs(l: int) -> list[tuple[int, int]]:
    """Exponent pairs that occur as the top tier of a root system."""
    pairs = [(0, 0)]
    pairs.extend((i, l - i) for i in range(1, l) if gcd(i, l) == 1)
    return pairs


def _ring(l: int) -> NodeRing:
    return NodeRing(FieldConfig(97, 1), l)


def _levels(max_l: int):
    """(l, ring, modules) for l <= max_l: the free module M(0, 0), then each M(i, l - i)."""
    for l in range(1, max_l + 1):
        ring = _ring(l)
        yield l, ring, [make_module(ring, i, (l - i) % l) for i in range(l)]


def _pairs(mods: list[ModulePresentation]):
    """(a, b, product map a x b) for every ordered pair of the modules."""
    return ((a, b, product_map(a, b)) for a in mods for b in mods)


def _sym_powers(mods: list[ModulePresentation]):
    """(module, m, Sym^m map) for every module and m = 1..4."""
    return ((pres, m, sym_power_map(pres, m)) for pres in mods for m in range(1, 5))


def _divisors(n: int):
    return (d for d in range(1, n + 1) if n % d == 0)


def _tiers(max_r: int):
    """(r, l, ring, i_top, j_top) for every r <= max_r, l | r and top pair over l."""
    for r in range(1, max_r + 1):
        for l in _divisors(r):
            ring = _ring(l)
            for i_top, j_top in _top_pairs(l):
                yield r, l, ring, i_top, j_top


# -- ring laws -----------------------------------------------------------

# Random ring-law cases per level, and the seed that draws them.
RING_CASES_PER_L = 200
RING_SEED = 7


def _random_element(ring: NodeRing, rng: random.Random):
    terms = []
    for _ in range(rng.randrange(5)):
        terms.append(((rng.randrange(4), rng.randrange(4), rng.randrange(4)),
                      rng.randrange(ring.field.p)))
    return ring.from_terms(terms)


def suite_ring_laws(max_l: int) -> Cases:
    """Commutative-ring axioms and evaluation homomorphisms on random triples."""
    rng = random.Random(RING_SEED)
    for _, ring, _ in _levels(max_l):
        t0 = rng.randrange(ring.field.p)
        for _ in range(RING_CASES_PER_L):
            yield _ring_law_failure(ring, t0, *(_random_element(ring, rng) for _ in range(3)))


def _ring_law_failure(ring: NodeRing, t0: int, a, b, c) -> str | None:
    """The first ring law that fails on the triple, or None."""
    l = ring.l
    if (a + b) + c != a + (b + c) or a + b != b + a:
        return f"l={l}: addition laws fail on {a}, {b}, {c}"
    if (a * b) * c != a * (b * c) or a * b != b * a:
        return f"l={l}: multiplication laws fail on {a}, {b}, {c}"
    if a * (b + c) != a * b + a * c:
        return f"l={l}: distributivity fails on {a}, {b}, {c}"
    # products of specialized representatives can recreate t through
    # x*y -> t^l, so compare after one more evaluation pass
    if (a * b).specialize(t0) != (a.specialize(t0) * b.specialize(t0)).specialize(t0):
        return f"l={l}: specialize is not multiplicative on {a}, {b}"
    if (a * b).localize("x") != a.localize("x") * b.localize("x"):
        return f"l={l}: localization is not multiplicative on {a}, {b}"
    if a * ring.x() * ring.y() != a * ring.t(l):
        return f"l={l}: node relation fails on {a}"
    return None


# -- product well-definedness --------------------------------------------


def suite_well_definedness(max_l: int) -> Cases:
    """Product and power maps respect the presentations; broken images do not."""
    for l, _, mods in _levels(max_l):
        for a, b, pm in _pairs(mods):
            bad = check_well_defined(pm)
            if bad is not None:
                yield f"l={l}: product {a!r} x {b!r}: {bad!r}"
                continue
            yield None
            yield from _perturbations(pm, f"l={l} {a!r}x{b!r}")
            # the transcription with the two middle t-exponents swapped
            if not a.is_free and not b.is_free and a.i != b.i and a.i + b.i != l:
                swapped = dict(pm.images)
                swapped[(1, 2)], swapped[(2, 1)] = pm.images[(2, 1)], pm.images[(1, 2)]
                gm = GeneratorMap(TensorSource(a, b), pm.target, swapped)
                yield (None if check_well_defined(gm) is not None else
                       f"l={l}: swapped images pass for {a!r} x {b!r}")
        for pres, m, gm in _sym_powers(mods):
            bad = check_well_defined(gm)
            yield None if bad is None else f"l={l}: Sym^{m} {pres!r}: {bad!r}"


def _perturbations(gmap: GeneratorMap, label: str) -> Cases:
    """Adding a nonzero constant to any single image coefficient must break the map."""
    src = gmap.source
    if not src.relations():
        return  # nothing to break
    ring = gmap.target.ring
    for key, img in gmap.images.items():
        for part, mono in (("f", next(iter(img.f.terms), None)),
                           ("g", next(iter(img.g.terms), None))):
            if mono is None:
                continue
            bump = ring.from_terms([(mono, 1)])
            images = dict(gmap.images)
            if part == "f":
                images[key] = gmap.target.element(img.f + bump, img.g)
            else:
                images[key] = gmap.target.element(img.f, img.g + bump)
            gm = GeneratorMap(src, gmap.target, images)
            yield (None if check_well_defined(gm) is not None else
                   f"{label}: perturbed image {key}.{part} still passes")


# -- commutativity and associativity -------------------------------------


def suite_commutativity(max_l: int) -> Cases:
    for l, _, mods in _levels(max_l):
        for a, b, ab in _pairs(mods):
            ba = product_map(b, a)
            for ka in a.generator_keys:
                for kb in b.generator_keys:
                    yield (None if ab.images[(ka, kb)] == ba.images[(kb, ka)] else
                           f"l={l}: {a!r} x {b!r} keys ({ka},{kb}) disagree with the flip")


def suite_associativity(max_l: int) -> Cases:
    for l, _, mods in _levels(max_l):
        for a, b, ab in _pairs(mods):
            for c in mods:
                ab_c = product_map(ab.target, c)
                bc = product_map(b, c)
                a_bc = product_map(a, bc.target)
                for ka in a.generator_keys:
                    ga = a.generator(ka)
                    for kb in b.generator_keys:
                        gb = b.generator(kb)
                        left_part = ab.apply(ga, gb)
                        for kc in c.generator_keys:
                            gc = c.generator(kc)
                            left = ab_c.apply(left_part, gc)
                            right = a_bc.apply(ga, bc.apply(gb, gc))
                            yield (None if left == right else
                                   f"l={l}: associativity fails on {a!r},{b!r},{c!r} "
                                   f"keys ({ka},{kb},{kc})")


# -- power coherence ------------------------------------------------------


def _divisor_chains(r: int):
    divs = list(_divisors(r))
    return ((d, e) for d in divs for e in divs if d % e == 0)


def suite_power_coherence(max_r: int) -> Cases:
    """Direct tier powers equal iterated binary products and compose correctly."""
    for r, l, ring, i_top, j_top in _tiers(max_r):
        for d, e in _divisor_chains(r):
            direct = power_map(ring, r, d, e, i_top, j_top)
            m = d // e
            source = direct.source.module
            for key in direct.images:
                factors = ([source.generator(1)] * m if source.is_free else
                           [source.generator(1)] * (m - key) + [source.generator(2)] * key)
                acc = factors[0]
                for s in range(1, m):
                    acc = product_map(source.grade(s), source).apply(acc, factors[s])
                yield (None if acc == direct.images[key] else
                       f"r={r} l={l} top=({i_top},{j_top}) d={d} e={e}: "
                       f"iterated product differs at key {key}")
        for d2, d1 in _divisor_chains(r):
            for d0 in _divisors(d1):
                yield (None if compatibility_check(ring, r, d2, d1, d0, i_top, j_top) else
                       f"r={r} l={l} top=({i_top},{j_top}): "
                       f"composition {d2}->{d1}->{d0} mismatches")


# -- cokernel law ---------------------------------------------------------


def suite_cokernel(max_r: int) -> Cases:
    """Tier-map cokernel length is d/e - 1 off the free locus and 0 on it."""
    lengths: dict[GeneratorMap, int] = {}  # power_map returns one object per map
    for r, l, ring, i_top, j_top in _tiers(max_r):
        for d, e in _divisor_chains(r):
            gm = power_map(ring, r, d, e, i_top, j_top)
            if gm not in lengths:
                lengths[gm] = cokernel_length(gm)
            length = lengths[gm]
            expected = 0 if gm.source.module.is_free else d // e - 1
            yield (None if length == expected else
                   f"r={r} l={l} top=({i_top},{j_top}) d={d} e={e}: "
                   f"length {length}, expected {expected}")


# -- localization ---------------------------------------------------------


def suite_localized(max_l: int) -> Cases:
    """After inverting x or y, every product is multiplication by a unit monomial."""
    for l, ring, mods in _levels(max_l):
        for a, b, pm in _pairs(mods):
            for var in ("x", "y"):
                # expected unit: the exponent overflow of the generator product
                if var == "x":
                    overflow, rem = divmod(a.i + b.i - pm.target.i, l)
                else:
                    overflow, rem = divmod(a.j + b.j - pm.target.j, l)
                if rem or overflow < 0:
                    yield f"l={l} {a!r}x{b!r}: unit exponent at {var} is not a nonnegative integer"
                    continue
                unit = LaurentRing(ring.field, var).monomial(1, overflow, 0)
                for ka in a.generator_keys:
                    for kb in b.generator_keys:
                        lhs = pm.images[(ka, kb)].localized_coefficient(var)
                        rhs = (unit
                               * a.generator(ka).localized_coefficient(var)
                               * b.generator(kb).localized_coefficient(var))
                        yield (None if lhs == rhs else
                               f"l={l} {a!r}x{b!r} at {var}, keys ({ka},{kb}): "
                               f"{lhs} != {rhs}")


# -- duality ---------------------------------------------------------------


def suite_duality(max_l: int) -> Cases:
    """The pairing with the flipped module is well defined and unimodular off the node."""
    for l, ring, mods in _levels(max_l):
        t, x, y = ring.t, ring.x, ring.y
        for pres in mods:
            pairing = dual_pairing(pres)
            if not pairing.target.is_free:
                yield f"l={l} {pres!r}: pairing misses the free module"
                continue
            if check_well_defined(pairing) is not None:
                yield f"l={l} {pres!r}: pairing not well defined"
                continue
            yield None
            sigma = pairing.target.generator(1)
            if not pres.is_free:
                # the frozen pairing matrix ((x, t^i), (t^j, y))
                want = {(1, 1): x() * sigma, (1, 2): t(pres.i) * sigma,
                        (2, 1): t(pres.j) * sigma, (2, 2): y() * sigma}
                yield (None if pairing.images == want else
                       f"l={l} {pres!r}: pairing matrix differs from ((x,t^i),(t^j,y))")
            # perfectness off the node: localization kills one generator on
            # each side, and the surviving pair must evaluate to a unit
            for var, key in (("x", 1), ("y", 2 if not pres.is_free else 1)):
                value = pairing.images[(key, key)].localized_coefficient(var)
                mono = value.as_unit_monomial()
                yield (None if mono is not None and mono[0] % ring.field.p != 0 else
                       f"l={l} {pres!r}: localized pairing value {value} is not a unit at {var}")


# -- automorphisms ----------------------------------------------------------


def suite_automorphisms(max_r: int) -> Cases:
    """Scaling symmetry orders: e on connected branches, e^2 at a separating node."""
    for r in range(1, max_r + 1):
        field = FieldConfig.for_level(r)
        for l in _divisors(r):
            ring = NodeRing(field, l)
            for i_top, j_top in _top_pairs(l):
                pres = make_module(ring, i_top, j_top)
                for e in _divisors(r):
                    split = e if pres.is_free else e * e
                    # (label, t or None, disconnected, expected order, must be diagonal)
                    for label, t, disconnected, expected, diagonal in (
                            ("generic", None, False, e, True),
                            ("t=1", 1, True, e, True),
                            ("t=0 disconnected", 0, True, split, False),
                            ("t=0 connected", 0, False, e, True)):
                        group = automorphisms(pres, e, t, disconnected)
                        yield (None if group.order == expected and (group.diagonal or not diagonal)
                               else f"r={r} l={l} ({i_top},{j_top}) e={e}: {label} group "
                               f"order {group.order}, expected {expected}"
                               + ("" if group.diagonal else " (not diagonal)"))


# -- resolution --------------------------------------------------------------


def suite_resolution() -> Cases:
    """One case per prime at the deciding degree, which covers every degree."""
    for p in (5, 7, 13):
        yield (None if resolution_exact_check(FieldConfig(p, 1), DECIDING_DEGREE) else
               f"p={p}: resolution not exact in some degree <= {DECIDING_DEGREE}")


# -- stratum enumeration ------------------------------------------------------


# The graph family's shapes: vertex ids, edge kinds, edge counts, and the
# genus and leg budgets shared by the vertices.
_GRAPH_SHAPES = (
    (("v0",), (("v0", "v0"),), range(4), 2, 3),
    (("a", "b"), (("a", "b"), ("a", "a"), ("b", "b")), range(1, 4), 2, 2),
    (("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c"), ("a", "a"), ("b", "b"), ("c", "c")),
     range(1, 4), 1, 2),
)


def _graph_family():
    """Connected stable graphs with at most 3 vertices and 3 edges.

    Genus and leg budgets keep the family finite: one vertex carries
    genus up to 2 and up to 3 legs; two vertices share a genus budget of
    2, three vertices a genus budget of 1, and both a leg budget of 2.
    """
    graphs = []
    for ids, kinds, edge_counts, genus_budget, leg_budget in _GRAPH_SHAPES:
        genera = [gs for gs in iproduct(range(genus_budget + 1), repeat=len(ids))
                  if sum(gs) <= genus_budget]
        # one edge tuple per multiset of kinds: its sorted representative
        edge_sets = [combo for ne in edge_counts for combo in iproduct(kinds, repeat=ne)
                     if tuple(sorted(combo)) == combo]
        leg_sets = [tuple(zip(owners, range(1, nl + 1)))
                    for nl in range(leg_budget + 1) for owners in iproduct(ids, repeat=nl)]
        for gs, edges, legs in iproduct(genera, edge_sets, leg_sets):
            try:
                graphs.append(DualGraph(tuple(zip(ids, gs)), edges, legs))
            except ValueError:
                continue
    return [g for g in graphs if stability_check(g)]


@lru_cache(maxsize=1)
def _scan(graph: DualGraph, r: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The r^E head vectors in order, bucketed by each vertex's excess mod r at type 0.

    A leg adds -m_i to its vertex's excess, so at type m the admissible vectors
    are the bucket of each vertex's sum of m_i mod r.  The suite walks the types
    innermost, so one cached scan serves every type of a (graph, r).
    """
    zeros = (0,) * graph.n_markings
    buckets = {}
    for heads in iproduct(range(r), repeat=len(graph.edges)):
        key = tuple(vertex_excess(graph, v, zeros, heads) % r for v, _g in graph.vertices)
        buckets.setdefault(key, []).append(heads)
    return buckets


def _brute_force_assignments(graph: DualGraph, r: int,
                             m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The r^E head-twist vectors, in lexicographic order, that pass every vertex test."""
    key = tuple(sum(m[mk - 1] for w, mk in graph.legs if w == v) % r for v, _g in graph.vertices)
    return list(_scan(graph, r).get(key, ()))


def _listing_failure(graph: DualGraph, r: int, m: tuple[int, ...],
                     listed: list[tuple[int, ...]], closed: int) -> str | None:
    """Why the listing is not the admissible set in lexicographic order, or None."""
    scanned = _brute_force_assignments(graph, r, m)
    if not set(scanned).issuperset(listed):
        return "a vector is not E heads in 0..r-1 passing every vertex test"
    if any(a >= b for a, b in zip(listed, listed[1:])):
        return "the listing is not strictly increasing"
    if len(listed) != closed:
        return f"{len(listed)} assignments, closed form {closed}"
    if listed != scanned:
        return "the listing differs from the r^E scan"
    return None


def suite_enumeration(max_r: int) -> Cases:
    """Every stratum listing on the graph family equals its r^E scan, at every level.

    Admissible, strictly increasing and r^(E - V + 1) or 0 of them: the
    admissible set is one coset of that size or empty, so this proves the
    listing.  The scan (`_scan`, once per graph and level) checks the
    closed form itself.
    """
    for graph in _graph_family():
        n = graph.n_markings
        g = graph_genus(graph)
        cycle_rank = len(graph.edges) - len(graph.vertices) + 1
        for r in range(2, max_r + 1):
            for m in iproduct(range(r), repeat=n):
                closed = 0 if (2 * g - 2 + n - sum(m)) % r else r ** cycle_rank
                bad = _listing_failure(graph, r, m, enumerate_assignments(graph, r, m), closed)
                yield (None if bad is None else
                       f"graph V={len(graph.vertices)} E={len(graph.edges)} "
                       f"legs={n} r={r} m={m}: {bad}")
    # the worked one-vertex loop example
    loop = DualGraph((("v0", 0),), (("v0", "v0"),), (("v0", 1),))
    for m, expected in (((1,), 2), ((0,), 0)):
        count = len(enumerate_assignments(loop, 2, m))
        yield (None if count == expected else
               f"loop graph r=2 m={m}: {count} assignments, expected {expected}")


# -- closed forms --------------------------------------------------------------


CHI_CASES: tuple = (
    (0, 3, 1, (0, 0, 0), 2),
    (0, 3, 2, (1, 1, 0), None),
    (0, 3, 2, (1, 0, 0), 1),
    (0, 3, 3, (1, 1, 1), None),
    (0, 3, 3, (2, 2, 0), 0),
    (0, 4, 2, (1, 1, 1, 1), 0),
    (0, 4, 2, (0, 0, 1, 1), 1),
    (0, 5, 3, (1, 1, 1, 1, 2), 0),
    (1, 1, 1, (1,), 0),
    (1, 1, 2, (1,), 0),
    (1, 1, 2, (0,), None),
    (1, 1, 3, (1,), 0),
    (1, 1, 4, (1,), 0),
    (1, 1, 6, (3,), None),
    (1, 2, 2, (1, 1), 0),
    (1, 2, 3, (1, 2), None),
    (1, 2, 3, (0, 0), None),
    (1, 2, 3, (2, 0), 0),
    (1, 3, 3, (1, 1, 1), 0),
    (2, 1, 2, (1,), 0),
    (2, 1, 2, (0,), None),
    (2, 1, 3, (0,), 0),
    (2, 1, 3, (1,), None),
    (2, 1, 4, (3,), -1),
    (2, 2, 2, (1, 1), 0),
    (2, 2, 4, (0, 0), 0),
    (2, 0, 1, (), 1),
    (2, 0, 2, (), 0),
    (2, 0, 3, (), None),
    (3, 0, 2, (), 0),
    (3, 0, 4, (), -1),
    (3, 1, 2, (0,), None),
    (3, 1, 5, (0,), -1),
    (3, 2, 4, (1, 3), None),
    (3, 2, 4, (2, 0), -1),
    (4, 0, 2, (), 0),
    (4, 0, 3, (), -1),
    (4, 2, 6, (1, 1), -2),
    (5, 0, 2, (), 0),
    (5, 3, 6, (2, 3, 1), None),
)

DIMENSION_CASES: tuple = (
    (0, 3, 0, 0),
    (0, 4, 0, 1),
    (0, 4, 1, 0),
    (1, 1, 0, 1),
    (1, 2, 1, 1),
    (2, 0, 0, 3),
    (2, 1, 2, 2),
    (3, 0, 1, 5),
    (3, 2, 3, 5),
    (5, 5, 4, 13),
)


def suite_closed_forms() -> Cases:
    """Euler characteristics and stratum dimensions on a frozen 50-case table."""
    for g, n, r, m, expected in CHI_CASES:
        got = spin_chi(g, n, r, m)
        yield None if got == expected else f"chi({g},{n},{r},{m}) = {got}, expected {expected}"
    for g, n, u, expected in DIMENSION_CASES:
        got = deformation_dimension(g, n, u)
        yield (None if got == expected else
               f"dimension({g},{n},u={u}) = {got}, expected {expected}")


# -- oracle agreement ------------------------------------------------------------


def suite_oracle_agreement(max_r: int) -> Cases:
    """Every product and power image re-derives from the covering-chart model."""
    for l, _, mods in _levels(max_r):
        for a, b, pm in _pairs(mods):
            want = oracle_product_images(a, b, pm.target)
            for key in pm.images:
                yield (None if pm.images[key] == want[key] else
                       f"l={l} {a!r}x{b!r} key {key}: oracle disagrees")
        for pres, m, gm in _sym_powers(mods):
            want = oracle_sym_power_images(pres, m, gm.target)
            for key in gm.images:
                yield (None if gm.images[key] == want[key] else
                       f"l={l} Sym^{m} {pres!r} key {key}: oracle disagrees")
    for r, l, ring, i_top, j_top in _tiers(max_r):
        for d, e in _divisor_chains(r):
            gm = power_map(ring, r, d, e, i_top, j_top)
            want = oracle_sym_power_images(gm.source.module, d // e, gm.target)
            for key in gm.images:
                yield (None if gm.images[key] == want[key] else
                       f"r={r} l={l} ({i_top},{j_top}) {d}->{e} key {key}: oracle disagrees")


# -- the suite table ---------------------------------------------------------------


class Suite(NamedTuple):
    """A report name, the case generator, and its arguments as a function of max_r."""

    name: str
    generate: Callable[..., Cases]
    scale: Callable[[int], tuple]

    def run(self, max_r: int) -> SuiteResult:
        """Count the cases at scale max_r and collect their failures; a case that raises fails."""
        outcomes = []
        try:
            outcomes.extend(self.generate(*self.scale(max_r)))
        except Exception as exc:
            outcomes.append(f"raised {type(exc).__name__}: {exc}")
        failures = [msg for msg in outcomes if msg is not None]
        return SuiteResult(self.name, not failures, len(outcomes), failures)


SUITES: tuple[Suite, ...] = (
    Suite("ring-laws", suite_ring_laws, lambda max_r: (min(max_r, 8),)),
    Suite("well-definedness", suite_well_definedness, lambda max_r: (max_r,)),
    Suite("commutativity", suite_commutativity, lambda max_r: (max_r,)),
    Suite("associativity", suite_associativity, lambda max_r: (min(max_r, 6),)),
    Suite("power-coherence", suite_power_coherence, lambda max_r: (max_r,)),
    Suite("cokernel-length", suite_cokernel, lambda max_r: (max_r,)),
    Suite("localized-products", suite_localized, lambda max_r: (max_r,)),
    Suite("duality", suite_duality, lambda max_r: (max_r,)),
    Suite("automorphisms", suite_automorphisms, lambda max_r: (max_r,)),
    Suite("resolution-exactness", suite_resolution, lambda max_r: ()),
    Suite("stratum-enumeration", suite_enumeration, lambda max_r: (min(max_r, 6),)),
    Suite("closed-forms", suite_closed_forms, lambda max_r: ()),
    Suite("oracle-agreement", suite_oracle_agreement, lambda max_r: (max_r,)),
)


def run_all(max_r: int) -> list[SuiteResult]:
    """Run every suite of SUITES scaled to the level bound max_r >= 1."""
    return [suite.run(max_r) for suite in SUITES]
