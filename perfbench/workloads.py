"""The three workloads: seeded inputs, one timed call per item, output checks.

tiers     One tier power map (r, l, top pair, d -> e) for r <= 10, certified
          three ways: iterated product_map(...).apply equals the power_map
          images, oracle_sym_power_images re-derives them, and
          compatibility_check passes for every chain d -> d1 -> e.  Generic-t
          module algebra: Sym^m GeneratorMap.apply over RingElement.__mul__,
          no linear algebra and no graphs.
cokernel  cokernel_length(power_map(...)) on the same tier maps, without a
          memo, plus resolution_exact_check for p in {5, 7, 13} through
          degree 8.  Ring at t = 0 and _linalg.row_reduce; no Sym^m apply
          and no graphs.
strata    One seeded graph document through cli.main(["strata", path]).
          The only user path into dualgraph; no ring work.  Documents with
          integral chi list r^(E-V+1) assignments (formatting and
          index_from_twist); the others list none, so their time is the scan.

The seed shuffles the item order and picks the field prime for tiers and
cokernel, whose results must not depend on either.  For strata it draws
each document's edges, legs, genera and type inside a fixed shape mix, so
every seed scans the same number of candidates and lists the same number
of assignments.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from math import gcd
from pathlib import Path

# Largest level r of the tier maps, shared by tiers and cokernel.  A tiers
# pass at r <= 12 takes 8 to 14 s on a shared 2-CPU machine, which leaves
# three repeats of each item in a run; r <= 10 keeps Sym^m up to m = 10 and
# takes under 2 s, so every item is timed about twenty times.
TIER_MAX_R = 10
# Primes for the tier and cokernel rings (level 1, as in the verification suites).
TIER_PRIMES = (97, 101, 103, 107, 109, 113, 127, 131)
RESOLUTION_PRIMES = (5, 7, 13)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def tier_items(max_r: int) -> list[tuple[int, int, int, int, int, int]]:
    """Every (r, l, i_top, j_top, d, e) with l | r, a top pair over l and e | d | r."""
    items = []
    for r in range(1, max_r + 1):
        for l in _divisors(r):
            tops = [(0, 0)] + [(i, l - i) for i in range(1, l) if gcd(i, l) == 1]
            for i_top, j_top in tops:
                for d in _divisors(r):
                    for e in _divisors(d):
                        items.append((r, l, i_top, j_top, d, e))
    return items


def _chain_middles(d: int, e: int) -> list[int]:
    """Every d1 with e | d1 | d."""
    return [d1 for d1 in _divisors(d) if d1 % e == 0]


class Tiers:
    name = "tiers"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        self.items = tier_items(4 if tiny else TIER_MAX_R)
        rng.shuffle(self.items)
        self.prime = rng.choice(TIER_PRIMES)

    def write_inputs(self) -> None:
        """Tier items are plain tuples; there is nothing to write."""

    def facts(self) -> dict:
        return {"items": len(self.items), "prime": self.prime,
                "chains": sum(len(_chain_middles(it[4], it[5])) for it in self.items)}

    def call(self, api, item):
        r, l, i_top, j_top, d, e = item
        ring = api.ring.NodeRing(api.field.FieldConfig(self.prime, 1), l)
        products, make = api.products, api.modules.make_module
        direct = products.power_map(ring, r, d, e, i_top, j_top)
        n, m = r // d, d // e
        source = make(ring, (n * i_top) % l, (n * j_top) % l)
        steps = [products.product_map(make(ring, (n * s * i_top) % l, (n * s * j_top) % l), source)
                 for s in range(1, m)]
        iterated = {}
        for key in direct.images:
            if source.is_free:
                factors = [source.generator(1)] * m
            else:
                factors = [source.generator(1)] * (m - key) + [source.generator(2)] * key
            acc = factors[0]
            for step, factor in zip(steps, factors[1:]):
                acc = step.apply(acc, factor)
            iterated[key] = acc
        oracle = api.oracle.oracle_sym_power_images(source, m, direct.target)
        chains = [products.compatibility_check(ring, r, d, d1, e, i_top, j_top)
                  for d1 in _chain_middles(d, e)]
        return direct.images, iterated, oracle, chains

    def check(self, item, out) -> bool:
        images, iterated, oracle, chains = out
        return iterated == images and oracle == images and bool(chains) and all(chains)


class Cokernel:
    name = "cokernel"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        max_degree = 2 if tiny else 8
        self.items = [("tier", *it) for it in tier_items(4 if tiny else TIER_MAX_R)]
        self.items += [("resolution", p, bound) for p in RESOLUTION_PRIMES
                       for bound in range(max_degree + 1)]
        rng.shuffle(self.items)
        self.prime = rng.choice(TIER_PRIMES)

    def write_inputs(self) -> None:
        """Cokernel items are plain tuples; there is nothing to write."""

    def facts(self) -> dict:
        return {"items": len(self.items), "prime": self.prime,
                "tier_maps": sum(1 for it in self.items if it[0] == "tier")}

    def call(self, api, item):
        if item[0] == "resolution":
            _, p, bound = item
            return api.resolution.resolution_exact_check(api.field.FieldConfig(p, 1), bound)
        _, r, l, i_top, j_top, d, e = item
        ring = api.ring.NodeRing(api.field.FieldConfig(self.prime, 1), l)
        return api.modules.cokernel_length(api.products.power_map(ring, r, d, e, i_top, j_top))

    def check(self, item, out) -> bool:
        if item[0] == "resolution":
            return out is True
        _, r, l, i_top, _j_top, d, e = item
        free = (r // d) * i_top % l == 0  # the tier-d exponents vanish mod l
        return out == (0 if free else d // e - 1)


# Strata shape mix: (vertices, edges, r, legs, integral chi, documents per 20).
# Each seed draws the same shapes in the same numbers, so the scan covers the
# same number of candidates (r^E each) and lists the same number of lines.
STRATA_SHAPES = (
    (1, 3, 4, 2, True, 2),
    (1, 4, 3, 1, True, 1),
    (2, 5, 3, 2, True, 2),
    (2, 5, 5, 1, False, 2),
    (2, 7, 2, 3, True, 2),
    (3, 4, 5, 1, True, 2),
    (3, 5, 6, 2, False, 1),
    (3, 6, 3, 3, False, 2),
    (3, 5, 4, 2, True, 2),
    (4, 6, 3, 3, True, 2),
    (4, 9, 2, 2, False, 1),
    (4, 10, 2, 2, True, 1),
)
TINY_SHAPES = (
    (1, 2, 3, 1, True, 1),
    (2, 3, 3, 2, False, 1),
    (3, 4, 2, 2, True, 1),
)
_ASSIGNMENTS = re.compile(r"^assignments: (\d+)$", re.M)
_LISTED = re.compile(r"^  \d+\. legs ", re.M)


def _primes_1_mod(r: int, count: int) -> list[int]:
    out, p = [], r + 1
    while len(out) < count:
        if p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1)):
            out.append(p)
        p += r
    return out


def strata_document(rng: random.Random, shape) -> tuple[dict, int]:
    """A stable connected graph document of the given shape and its expected count."""
    nv, ne, r, nlegs, integral, _ = shape
    vids = [f"v{k}" for k in range(nv)]
    edges = [(vids[rng.randrange(k)], vids[k]) for k in range(1, nv)]
    while len(edges) < ne:
        a, b = sorted((rng.randrange(nv), rng.randrange(nv)))
        edges.append((vids[a], vids[b]))
    rng.shuffle(edges)
    legs = [(vids[rng.randrange(nv)], k + 1) for k in range(nlegs)]
    genera = []
    for v in vids:
        valence = sum(v == a for a, _ in edges) + sum(v == b for _, b in edges)
        valence += sum(v == w for w, _ in legs)
        g = rng.choice((0, 0, 1))
        while 2 * g - 2 + valence <= 0:
            g += 1
        genera.append(g)
    genus = sum(genera) + ne - nv + 1
    m = [rng.randrange(r) for _ in range(nlegs)]
    rest = 2 * genus - 2 + nlegs - sum(m[:-1])
    m[-1] = rest % r if integral else (rest + 1 + rng.randrange(r - 1)) % r
    doc = {
        "r": r,
        "m": m,
        "vertices": [{"id": v, "genus": g} for v, g in zip(vids, genera)],
        "edges": [[a, b] for a, b in edges],
        "legs": [{"vertex": v, "marking": k} for v, k in legs],
        "field_prime": rng.choice(_primes_1_mod(r, 3)),
    }
    # admissible weightings mod r form a coset of the cycle space: r^(E-V+1) or none
    return doc, r ** (ne - nv + 1) if integral else 0


class Strata:
    name = "strata"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        shapes = TINY_SHAPES if tiny else STRATA_SHAPES
        copies = 1 if tiny else 10
        slots = [shape for shape in shapes for _ in range(shape[-1] * copies)]
        rng.shuffle(slots)
        self.workdir = workdir
        self.items, self.texts = [], []
        for k, shape in enumerate(slots):
            doc, expected = strata_document(rng, shape)
            self.items.append((str(workdir / f"graph-{k:04d}.json"), expected, shape[2] ** shape[1]))
            self.texts.append(json.dumps(doc))
        self.digests: dict[str, str] = {}

    def write_inputs(self) -> None:
        """Write each generated document to its item's path."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for (path, _, _), text in zip(self.items, self.texts):
            Path(path).write_text(text, encoding="utf-8")

    def facts(self) -> dict:
        return {"items": len(self.items),
                "sum_r_pow_E": self.candidates(),
                "sum_expected_assignments": sum(it[1] for it in self.items)}

    def candidates(self) -> int:
        return sum(it[2] for it in self.items)

    def call(self, api, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(["strata", item[0]])
        return code, out.getvalue()

    def check(self, item, out) -> bool:
        path, expected, _ = item
        code, report = out
        found = _ASSIGNMENTS.search(report)
        digest = hashlib.sha256(report.encode()).hexdigest()
        same = self.digests.setdefault(path, digest) == digest
        return (code == 0 and found is not None and int(found.group(1)) == expected
                and len(_LISTED.findall(report)) == expected and same)

    def totals(self, outputs) -> tuple[int, int]:
        """(assignments reported, report bytes) over one pass's outputs."""
        assignments = report_bytes = 0
        for out in outputs:
            if isinstance(out, tuple):
                found = _ASSIGNMENTS.search(out[1])
                assignments += int(found.group(1)) if found else 0
                report_bytes += len(out[1].encode())
        return assignments, report_bytes

    def digest(self) -> str:
        """Digest of every report, in item order, for comparing two runs of one seed."""
        joined = "".join(self.digests.get(path, "-") for path, _, _ in self.items)
        return hashlib.sha256(joined.encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Tiers, Cokernel, Strata)}
