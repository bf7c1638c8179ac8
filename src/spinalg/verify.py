"""Property suites shared by the command line and the acceptance tests.

Each suite returns a SuiteResult with a deterministic case count and the
failure descriptions it collected, so the same code backs `spinalg
verify-algebra` and the test suite.  Randomized suites draw from a
seeded generator; nothing here depends on hash order or wall time.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import product as iproduct
from math import gcd

from .dualgraph import (
    DualGraph,
    deformation_dimension,
    enumerate_assignments,
    graph_genus,
    spin_chi,
    stability_check,
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
    tier_module,
)
from .resolution import resolution_exact_check
from .ring import LaurentRing, NodeRing, TMode


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    failures: list[str] = dc_field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"suite {self.name}: {status} ({self.cases} cases)"
        if self.failures:
            out += "".join(f"\n  - {msg}" for msg in self.failures[:10])
        return out


def _result(name: str, cases: int, failures: list[str]) -> SuiteResult:
    return SuiteResult(name, not failures, cases, failures)


def _modules_over(ring: NodeRing) -> list[ModulePresentation]:
    """The free module and every standard exponent pair over the ring."""
    out = [make_module(ring, 0, 0)]
    out.extend(make_module(ring, i, ring.l - i) for i in range(1, ring.l))
    return out


def _top_pairs(l: int) -> list[tuple[int, int]]:
    """Exponent pairs that occur as the top tier of a root system."""
    pairs = [(0, 0)]
    pairs.extend((i, l - i) for i in range(1, l) if gcd(i, l) == 1)
    return pairs


def _ring(l: int, p: int = 97) -> NodeRing:
    return NodeRing(FieldConfig(p, 1), l)


# -- ring laws -----------------------------------------------------------


def _random_element(ring: NodeRing, rng: random.Random):
    terms = []
    for _ in range(rng.randrange(5)):
        terms.append(((rng.randrange(4), rng.randrange(4), rng.randrange(4)),
                      rng.randrange(ring.field.p)))
    return ring.from_terms(terms)


def suite_ring_laws(max_l: int = 8, cases_per_l: int = 1000, seed: int = 7) -> SuiteResult:
    """Commutative-ring axioms and evaluation homomorphisms on random triples."""
    failures = []
    cases = 0
    rng = random.Random(seed)
    for l in range(1, max_l + 1):
        ring = _ring(l)
        mode = TMode.specialized(rng.randrange(ring.field.p))
        for _ in range(cases_per_l):
            a, b, c = (_random_element(ring, rng) for _ in range(3))
            cases += 1
            if (a + b) + c != a + (b + c) or a + b != b + a:
                failures.append(f"l={l}: addition laws fail on {a}, {b}, {c}")
                continue
            if (a * b) * c != a * (b * c) or a * b != b * a:
                failures.append(f"l={l}: multiplication laws fail on {a}, {b}, {c}")
                continue
            if a * (b + c) != a * b + a * c:
                failures.append(f"l={l}: distributivity fails on {a}, {b}, {c}")
                continue
            # products of specialized representatives can recreate t through
            # x*y -> t^l, so compare after one more evaluation pass
            if (a * b).specialize(mode) != (a.specialize(mode) * b.specialize(mode)).specialize(mode):
                failures.append(f"l={l}: specialize is not multiplicative on {a}, {b}")
                continue
            if (a * b).localize("x") != a.localize("x") * b.localize("x"):
                failures.append(f"l={l}: localization is not multiplicative on {a}, {b}")
                continue
            if a * ring.x() * ring.y() != a * ring.t(l):
                failures.append(f"l={l}: node relation fails on {a}")
    return _result("ring-laws", cases, failures)


# -- product well-definedness --------------------------------------------


def suite_well_definedness(max_l: int = 10) -> SuiteResult:
    """Product and power maps respect the presentations; broken images do not."""
    failures = []
    cases = 0
    for l in range(1, max_l + 1):
        ring = _ring(l)
        mods = _modules_over(ring)
        for a in mods:
            for b in mods:
                pm = product_map(a, b)
                cases += 1
                bad = check_well_defined(pm)
                if bad is not None:
                    failures.append(f"l={l}: product {a!r} x {b!r}: {bad!r}")
                    continue
                cases += _perturbation_cases(pm, failures, f"l={l} {a!r}x{b!r}")
                # the transcription with the two middle t-exponents swapped
                if not a.is_free and not b.is_free and a.i != b.i and a.i + b.i != l:
                    swapped = dict(pm.images)
                    swapped[(1, 2)], swapped[(2, 1)] = pm.images[(2, 1)], pm.images[(1, 2)]
                    gm = GeneratorMap(TensorSource(a, b), pm.target, swapped)
                    cases += 1
                    if check_well_defined(gm) is None:
                        failures.append(f"l={l}: swapped images pass for {a!r} x {b!r}")
        for pres in mods:
            for m in range(1, 5):
                gm = sym_power_map(pres, m)
                cases += 1
                bad = check_well_defined(gm)
                if bad is not None:
                    failures.append(f"l={l}: Sym^{m} {pres!r}: {bad!r}")
    return _result("well-definedness", cases, failures)


def _perturbation_cases(gmap: GeneratorMap, failures: list[str], label: str) -> int:
    """Adding a nonzero constant to any single image coefficient must break the map."""
    src = gmap.source
    if isinstance(src, TensorSource) and (src.left.is_free or src.right.is_free):
        return 0  # no relations survive, nothing to break
    ring = gmap.target.ring
    count = 0
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
            count += 1
            if check_well_defined(gm) is None:
                failures.append(f"{label}: perturbed image {key}.{part} still passes")
    return count


# -- commutativity and associativity -------------------------------------


def suite_commutativity(max_l: int = 10) -> SuiteResult:
    failures = []
    cases = 0
    for l in range(1, max_l + 1):
        mods = _modules_over(_ring(l))
        for a in mods:
            for b in mods:
                ab, ba = product_map(a, b), product_map(b, a)
                for ka in a.generator_keys:
                    for kb in b.generator_keys:
                        cases += 1
                        if ab.images[(ka, kb)] != ba.images[(kb, ka)]:
                            failures.append(
                                f"l={l}: {a!r} x {b!r} keys ({ka},{kb}) disagree with the flip")
    return _result("commutativity", cases, failures)


def suite_associativity(max_l: int = 6) -> SuiteResult:
    failures = []
    cases = 0
    for l in range(1, max_l + 1):
        mods = _modules_over(_ring(l))
        for a in mods:
            for b in mods:
                ab = product_map(a, b)
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
                                cases += 1
                                left = ab_c.apply(left_part, gc)
                                right = a_bc.apply(ga, bc.apply(gb, gc))
                                if left != right:
                                    failures.append(
                                        f"l={l}: associativity fails on {a!r},{b!r},{c!r} "
                                        f"keys ({ka},{kb},{kc})")
    return _result("associativity", cases, failures)


# -- power coherence ------------------------------------------------------


def _divisor_chains(r: int):
    divs = [d for d in range(1, r + 1) if r % d == 0]
    for d in divs:
        for e in divs:
            if d % e == 0:
                yield d, e


def suite_power_coherence(max_r: int = 12) -> SuiteResult:
    """Direct tier powers equal iterated binary products and compose correctly."""
    failures = []
    cases = 0
    for r in range(1, max_r + 1):
        for l in (d for d in range(1, r + 1) if r % d == 0):
            ring = _ring(l)
            for i_top, j_top in _top_pairs(l):
                grades = {n: make_module(ring, (n * i_top) % l, (n * j_top) % l)
                          for n in range(0, r + 1)}
                for d, e in _divisor_chains(r):
                    direct = power_map(ring, r, d, e, i_top, j_top)
                    n = r // d
                    m = d // e
                    source = grades[n]
                    for key in direct.images:
                        cases += 1
                        factors = ([source.generator(1)] * m if source.is_free else
                                   [source.generator(1)] * (m - key) + [source.generator(2)] * key)
                        acc = factors[0]
                        for s in range(1, m):
                            acc = product_map(grades[n * s], source).apply(acc, factors[s])
                        if acc != direct.images[key]:
                            failures.append(
                                f"r={r} l={l} top=({i_top},{j_top}) d={d} e={e}: "
                                f"iterated product differs at key {key}")
                for d2, d1 in _divisor_chains(r):
                    for d0 in (dd for dd in range(1, d1 + 1) if d1 % dd == 0):
                        cases += 1
                        if not compatibility_check(ring, r, d2, d1, d0, i_top, j_top):
                            failures.append(
                                f"r={r} l={l} top=({i_top},{j_top}): "
                                f"composition {d2}->{d1}->{d0} mismatches")
    return _result("power-coherence", cases, failures)


# -- cokernel law ---------------------------------------------------------


def suite_cokernel(max_r: int = 12) -> SuiteResult:
    """Tier-map cokernel length is d/e - 1 off the free locus and 0 on it."""
    failures = []
    cases = 0
    cache: dict = {}
    for r in range(1, max_r + 1):
        for l in (d for d in range(1, r + 1) if r % d == 0):
            ring = _ring(l)
            for i_top, j_top in _top_pairs(l):
                for d, e in _divisor_chains(r):
                    source = tier_module(ring, i_top, j_top, r, d)
                    key = (l, source.i, source.j, d // e)
                    cases += 1
                    if key in cache:
                        length = cache[key]
                    else:
                        length = cokernel_length(power_map(ring, r, d, e, i_top, j_top))
                        cache[key] = length
                    expected = 0 if source.is_free else d // e - 1
                    if length != expected:
                        failures.append(
                            f"r={r} l={l} top=({i_top},{j_top}) d={d} e={e}: "
                            f"length {length}, expected {expected}")
    return _result("cokernel-length", cases, failures)


# -- localization ---------------------------------------------------------


def suite_localized(max_l: int = 10) -> SuiteResult:
    """After inverting x or y, every product is multiplication by a unit monomial."""
    failures = []
    cases = 0
    for l in range(1, max_l + 1):
        ring = _ring(l)
        mods = _modules_over(ring)
        for a in mods:
            for b in mods:
                pm = product_map(a, b)
                for var in ("x", "y"):
                    # expected unit: the exponent overflow of the generator product
                    if var == "x":
                        overflow, rem = divmod(a.i + b.i - pm.target.i, l)
                    else:
                        overflow, rem = divmod(a.j + b.j - pm.target.j, l)
                    if rem or overflow < 0:
                        cases += 1
                        failures.append(f"l={l} {a!r}x{b!r}: unit exponent at {var} is not a nonnegative integer")
                        continue
                    unit = LaurentRing(ring.field, var).monomial(1, overflow, 0)
                    for ka in a.generator_keys:
                        for kb in b.generator_keys:
                            cases += 1
                            lhs = pm.images[(ka, kb)].localized_coefficient(var)
                            rhs = (unit
                                   * a.generator(ka).localized_coefficient(var)
                                   * b.generator(kb).localized_coefficient(var))
                            if lhs != rhs:
                                failures.append(
                                    f"l={l} {a!r}x{b!r} at {var}, keys ({ka},{kb}): "
                                    f"{lhs} != {rhs}")
    return _result("localized-products", cases, failures)


# -- duality ---------------------------------------------------------------


def suite_duality(max_l: int = 10) -> SuiteResult:
    """The pairing with the flipped module is well defined and unimodular off the node."""
    failures = []
    cases = 0
    for l in range(1, max_l + 1):
        ring = _ring(l)
        t, x, y = ring.t, ring.x, ring.y
        for pres in _modules_over(ring):
            pairing = dual_pairing(pres)
            cases += 1
            if not pairing.target.is_free:
                failures.append(f"l={l} {pres!r}: pairing misses the free module")
                continue
            if check_well_defined(pairing) is not None:
                failures.append(f"l={l} {pres!r}: pairing not well defined")
                continue
            sigma = pairing.target.generator(1)
            if not pres.is_free:
                # the frozen pairing matrix ((x, t^i), (t^j, y))
                want = {(1, 1): x() * sigma, (1, 2): t(pres.i) * sigma,
                        (2, 1): t(pres.j) * sigma, (2, 2): y() * sigma}
                cases += 1
                if pairing.images != want:
                    failures.append(f"l={l} {pres!r}: pairing matrix differs from ((x,t^i),(t^j,y))")
            # perfectness off the node: localization kills one generator on
            # each side, and the surviving pair must evaluate to a unit
            for var, key in (("x", 1), ("y", 2 if not pres.is_free else 1)):
                cases += 1
                value = pairing.images[(key, key)].localized_coefficient(var)
                mono = value.as_unit_monomial()
                if mono is None or mono[0] % ring.field.p == 0:
                    failures.append(
                        f"l={l} {pres!r}: localized pairing value {value} is not a unit at {var}")
    return _result("duality", cases, failures)


# -- automorphisms ----------------------------------------------------------


def suite_automorphisms(max_r: int = 12) -> SuiteResult:
    """Scaling symmetry orders: e on connected branches, e^2 at a separating node."""
    failures = []
    cases = 0
    for r in range(1, max_r + 1):
        field = FieldConfig.for_level(r)
        for l in (d for d in range(1, r + 1) if r % d == 0):
            ring = NodeRing(field, l)
            for i_top, j_top in _top_pairs(l):
                pres = make_module(ring, i_top, j_top)
                for e in (d for d in range(1, r + 1) if r % d == 0):
                    cases += 1
                    generic = automorphisms(pres, e)
                    if generic.order != e or not generic.diagonal:
                        failures.append(
                            f"r={r} l={l} ({i_top},{j_top}) e={e}: generic group "
                            f"order {generic.order}")
                    cases += 1
                    smooth = automorphisms(pres, e, TMode.specialized(1), disconnected=True)
                    if smooth.order != e or not smooth.diagonal:
                        failures.append(
                            f"r={r} l={l} ({i_top},{j_top}) e={e}: t=1 group "
                            f"order {smooth.order}")
                    cases += 1
                    node = automorphisms(pres, e, TMode.specialized(0), disconnected=True)
                    expected = e if pres.is_free else e * e
                    if node.order != expected:
                        failures.append(
                            f"r={r} l={l} ({i_top},{j_top}) e={e}: t=0 disconnected "
                            f"order {node.order}, expected {expected}")
                    cases += 1
                    conn = automorphisms(pres, e, TMode.specialized(0), disconnected=False)
                    if conn.order != e or not conn.diagonal:
                        failures.append(
                            f"r={r} l={l} ({i_top},{j_top}) e={e}: t=0 connected "
                            f"order {conn.order}")
    return _result("automorphisms", cases, failures)


# -- resolution --------------------------------------------------------------


def suite_resolution(max_degree: int = 8) -> SuiteResult:
    failures = []
    cases = 0
    for p in (5, 7, 13):
        for bound in range(max_degree + 1):
            cases += 1
            if not resolution_exact_check(FieldConfig(p, 1), bound):
                failures.append(f"p={p}: resolution fails by degree {bound}")
    return _result("resolution-exactness", cases, failures)


# -- stratum enumeration ------------------------------------------------------


def _graph_family():
    """Connected stable graphs with at most 3 vertices and 3 edges.

    Genus and leg budgets keep the family finite: one vertex carries
    genus up to 2 and up to 3 legs; larger graphs share a genus budget
    of 2 and a leg budget of 2.
    """
    graphs = []
    for genus in range(3):
        for loops in range(4):
            for legs in range(4):
                try:
                    graphs.append(DualGraph(
                        (("v0", genus),),
                        tuple(("v0", "v0") for _ in range(loops)),
                        tuple(("v0", k + 1) for k in range(legs))))
                except ValueError:
                    continue
    pair_edges = {2: ["ab", "aa", "bb"], 3: ["ab", "ac", "bc", "aa", "bb", "cc"]}
    budgets = {2: (2, 2), 3: (1, 2)}
    for nv in (2, 3):
        names = "abc"[:nv]
        genus_budget, leg_budget = budgets[nv]
        genus_opts = [gs for gs in iproduct(range(genus_budget + 1), repeat=nv)
                      if sum(gs) <= genus_budget]
        edge_opts = []
        kinds = pair_edges[nv]
        for ne in range(1, 4):
            for combo in iproduct(kinds, repeat=ne):
                if tuple(sorted(combo)) != combo:
                    continue  # one representative per multiset
                edge_opts.append(combo)
        leg_opts = []
        for nl in range(leg_budget + 1):
            for owners in iproduct(names, repeat=nl):
                leg_opts.append(tuple((owners[k], k + 1) for k in range(nl)))
        for gs in genus_opts:
            vertices = tuple((names[k], gs[k]) for k in range(nv))
            for combo in edge_opts:
                edges = tuple((kind[0], kind[1]) for kind in combo)
                for legs in leg_opts:
                    try:
                        graphs.append(DualGraph(vertices, edges, legs))
                    except ValueError:
                        continue
    return [g for g in graphs if stability_check(g)]


def _brute_force_assignments(graph: DualGraph, r: int, m: tuple[int, ...]) -> list:
    """Independent re-enumeration: raw loops, no shared twist helpers."""
    leg_twists = tuple(mi % r for mi in m)
    static = {}
    for vid, genus in graph.vertices:
        half = 0
        legsum = 0
        for v, mk in graph.legs:
            if v == vid:
                half += 1
                legsum += leg_twists[mk - 1]
        for a, b in graph.edges:
            half += (a == vid) + (b == vid)
        static[vid] = (2 * genus - 2 + half, legsum)
    found = []
    for heads in iproduct(range(r), repeat=len(graph.edges)):
        ok = True
        for vid, _genus in graph.vertices:
            base, total = static[vid]
            for (a, b), k in zip(graph.edges, heads):
                if a == vid:
                    total += k
                if b == vid:
                    total += (r - k) % r
            if (base - total) % r != 0:
                ok = False
                break
        if ok:
            found.append(tuple((k, (r - k) % r) for k in heads))
    return found


def suite_enumeration(max_r: int = 6) -> SuiteResult:
    """Stratum enumeration matches a brute-force oracle on the graph family."""
    failures = []
    cases = 0
    family = _graph_family()
    for graph in family:
        n = graph.n_markings
        for r in range(2, max_r + 1):
            for m in iproduct(range(r), repeat=n):
                cases += 1
                got = [a.edge_twists for a in enumerate_assignments(graph, r, m)]
                want = _brute_force_assignments(graph, r, m)
                if got != want:
                    failures.append(
                        f"graph V={len(graph.vertices)} E={len(graph.edges)} "
                        f"legs={n} r={r} m={m}: {len(got)} vs {len(want)} assignments")
    # the worked one-vertex loop example
    loop = DualGraph((("v0", 0),), (("v0", "v0"),), (("v0", 1),))
    for m, expected in (((1,), 2), ((0,), 0)):
        cases += 1
        count = len(enumerate_assignments(loop, 2, m))
        if count != expected:
            failures.append(f"loop graph r=2 m={m}: {count} assignments, expected {expected}")
    return _result("stratum-enumeration", cases, failures)


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


def suite_closed_forms() -> SuiteResult:
    """Euler characteristics and stratum dimensions on a frozen 50-case table."""
    failures = []
    cases = 0
    for g, n, r, m, expected in CHI_CASES:
        cases += 1
        got = spin_chi(g, n, r, m)
        if got != expected:
            failures.append(f"chi({g},{n},{r},{m}) = {got}, expected {expected}")
    for g, n, u, expected in DIMENSION_CASES:
        cases += 1
        got = deformation_dimension(g, n, u)
        if got != expected:
            failures.append(f"dimension({g},{n},u={u}) = {got}, expected {expected}")
    return _result("closed-forms", cases, failures)


# -- oracle agreement ------------------------------------------------------------


def suite_oracle_agreement(max_l: int = 10, max_r: int = 12) -> SuiteResult:
    """Every product and power image re-derives from the covering-chart model."""
    failures = []
    cases = 0
    for l in range(1, max_l + 1):
        ring = _ring(l)
        mods = _modules_over(ring)
        for a in mods:
            for b in mods:
                pm = product_map(a, b)
                want = oracle_product_images(a, b, pm.target)
                for key in pm.images:
                    cases += 1
                    if pm.images[key] != want[key]:
                        failures.append(f"l={l} {a!r}x{b!r} key {key}: oracle disagrees")
        for pres in mods:
            for m in range(1, 5):
                gm = sym_power_map(pres, m)
                want = oracle_sym_power_images(pres, m, gm.target)
                for key in gm.images:
                    cases += 1
                    if gm.images[key] != want[key]:
                        failures.append(f"l={l} Sym^{m} {pres!r} key {key}: oracle disagrees")
    for r in range(1, max_r + 1):
        for l in (d for d in range(1, r + 1) if r % d == 0):
            ring = _ring(l)
            for i_top, j_top in _top_pairs(l):
                for d, e in _divisor_chains(r):
                    gm = power_map(ring, r, d, e, i_top, j_top)
                    source = tier_module(ring, i_top, j_top, r, d)
                    want = oracle_sym_power_images(source, d // e, gm.target)
                    for key in gm.images:
                        cases += 1
                        if gm.images[key] != want[key]:
                            failures.append(
                                f"r={r} l={l} ({i_top},{j_top}) {d}->{e} key {key}: "
                                f"oracle disagrees")
    return _result("oracle-agreement", cases, failures)


ALL_SUITES = (
    suite_ring_laws,
    suite_well_definedness,
    suite_commutativity,
    suite_associativity,
    suite_power_coherence,
    suite_cokernel,
    suite_localized,
    suite_duality,
    suite_automorphisms,
    suite_resolution,
    suite_enumeration,
    suite_closed_forms,
    suite_oracle_agreement,
)


def run_all(max_r: int = 6, quick_ring_cases: int | None = None) -> list[SuiteResult]:
    """Run every suite scaled to the requested level bound."""
    max_l = max(1, max_r)
    ring_cases = quick_ring_cases if quick_ring_cases is not None else 200
    return [
        suite_ring_laws(max_l=min(max_l, 8), cases_per_l=ring_cases),
        suite_well_definedness(max_l=max_l),
        suite_commutativity(max_l=max_l),
        suite_associativity(max_l=min(max_l, 6)),
        suite_power_coherence(max_r=max_r),
        suite_cokernel(max_r=max_r),
        suite_localized(max_l=max_l),
        suite_duality(max_l=max_l),
        suite_automorphisms(max_r=max_r),
        suite_resolution(max_degree=8),
        suite_enumeration(max_r=min(max_r, 6)),
        suite_closed_forms(),
        suite_oracle_agreement(max_l=max_l, max_r=max_r),
    ]
