"""Dual graphs of stable curves and their admissible twist assignments.

A dual graph records one vertex per irreducible component (with its
geometric genus), one edge per node, and one leg per marked point.  A
boundary stratum of the level-r moduli problem is such a graph together
with a twist in {0, .., r-1} on every half edge: legs are pinned by the
type, the two halves of each edge must sum to 0 mod r (the balanced
condition), and each vertex must satisfy an integrality constraint for
the root bundle to exist on its component.

That vertex condition is linear mod r: an edge (a, b) with head twist k
adds k at a and -k at b, and a loop adds nothing.  So on a connected
graph the admissible assignments are either none or one coset of the
cycle space H_1(Gamma; Z/r), r^(E - V + 1) of them: the admissible
weightings mod r of Janda, Pandharipande, Pixton and Zvonkine, "Double
ramification cycles on the moduli spaces of curves" (Publ. IHES 2017,
arXiv:1602.04705).  `enumerate_assignments` solves that coset directly
instead of scanning the r^E balanced candidates.
"""
from __future__ import annotations

from ._record import Record


class DualGraph(Record):
    """Connected stable-curve dual graph: vertices, edges, legs.

    vertices: (id, genus) pairs with unique ids.
    edges: (id, id) pairs; loops allowed, multiplicity by repetition.
    legs: (vertex id, marking) with markings exactly 1..n in some order.
    """

    _fields = ("vertices", "edges", "legs")
    __slots__ = (*_fields, "_slot", "_valence", "_forest")

    def __init__(self, vertices: tuple[tuple[str, int], ...], edges: tuple[tuple[str, str], ...],
                 legs: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", legs)
        slot = {v: i for i, (v, _g) in enumerate(vertices)}
        if len(slot) != len(vertices):
            raise ValueError("vertex ids must be unique")
        if not slot:
            raise ValueError("a dual graph needs at least one vertex")
        for v, g in vertices:
            if type(g) is not int:  # bool and float are refused too
                raise ValueError(f"vertex {v!r} has genus {g!r}, not an integer")
            if g < 0:
                raise ValueError(f"vertex {v!r} has negative genus")
        valence, ends = [0] * len(slot), []
        for a, b in edges:
            if a not in slot or b not in slot:
                raise ValueError(f"edge ({a!r}, {b!r}) mentions an unknown vertex")
            ends.append((slot[a], slot[b]))
            valence[slot[a]] += 1
            valence[slot[b]] += 1
        for v, mk in legs:
            if v not in slot:
                raise ValueError(f"leg at unknown vertex {v!r}")
            if type(mk) is not int:
                raise ValueError(f"leg marking {mk!r} is not an integer")
            valence[slot[v]] += 1
        markings = sorted(m for _v, m in legs)
        if markings != list(range(1, len(markings) + 1)):
            raise ValueError("leg markings must be exactly 1..n")
        free, tree = _spanning_forest(ends, len(slot))
        if len(tree) != len(slot) - 1:
            raise ValueError("dual graph must be connected")
        # the index, built in O(V + E + L) by the checks above; it is no
        # field, so equality, hashing and repr see the three tuples alone
        object.__setattr__(self, "_slot", slot)
        object.__setattr__(self, "_valence", tuple(valence))
        object.__setattr__(self, "_forest", (free, tree))

    @property
    def n_markings(self) -> int:
        return len(self.legs)

    def _slot_of(self, vid: str) -> int:
        try:
            return self._slot[vid]
        except (KeyError, TypeError):  # TypeError: an unhashable id is no vertex either
            raise ValueError(f"unknown vertex {vid!r}") from None

    def genus_of(self, vid: str) -> int:
        return self.vertices[self._slot_of(vid)][1]

    def valence(self, vid: str) -> int:
        """Half edges at a vertex: legs plus edge ends, loops counting twice."""
        return self._valence[self._slot_of(vid)]


def _spanning_forest(ends: list[tuple[int, int]], n_vertices: int) -> tuple[list, list]:
    """Reverse Kruskal on slot pairs: (free edges, tree steps below slot 0).

    An edge is a tree edge when no later edge already joins its ends; the others are
    free, as (edge, head, tail).  Tree steps (child, parent, edge, sign) come leaves
    first, sign -1 when the child is the tail.
    """
    component = list(range(n_vertices))

    def find(x: int) -> int:
        while component[x] != x:
            component[x] = component[component[x]]
            x = component[x]
        return x

    free, adjacent = [], [[] for _ in range(n_vertices)]
    for e in reversed(range(len(ends))):
        a, b = ends[e]
        ca, cb = find(a), find(b)
        if ca == cb:
            free.append((e, a, b))
        else:
            component[ca] = cb
            adjacent[a].append((b, e, -1))
            adjacent[b].append((a, e, 1))
    tree, reached, stack = [], {0}, [0]
    while stack:
        parent = stack.pop()
        for child, e, sign in adjacent[parent]:
            if child not in reached:
                reached.add(child)
                tree.append((child, parent, e, sign))
                stack.append(child)
    return free[::-1], tree[::-1]


def graph_genus(graph: DualGraph) -> int:
    """Arithmetic genus: sum of vertex genera plus the loop rank of the graph."""
    return (sum(g for _v, g in graph.vertices)
            + len(graph.edges) - len(graph.vertices) + 1)


def stability_check(graph: DualGraph) -> bool:
    """Every vertex has 2g_v - 2 + val_v > 0, which makes (g, n) stable too.

    The valences add up to 2E + n, so these excesses add up to 2g - 2 + n.
    """
    return all(2 * g - 2 + graph.valence(v) > 0 for v, g in graph.vertices)


def spin_chi(g: int, n: int, r: int, m: tuple[int, ...]) -> int | None:
    """Euler characteristic of the r-th root sheaf of type m, or None.

    Equals 1 - g + (2g - 2 + n - sum(m)) / r when r divides the
    numerator; otherwise no root sheaf of that type exists and the
    function returns None.
    """
    if type(r) is not int or r < 1:  # bool and float are refused too
        raise ValueError("level r must be a positive integer")
    if len(m) != n:
        raise ValueError(f"type length {len(m)} does not match n={n}")
    if type(g) is not int or type(n) is not int or g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g!r}, {n!r}) is not stable")
    if any(type(mi) is not int for mi in m):
        raise ValueError(f"type entries must be integers; got m={m!r}")
    numerator = 2 * g - 2 + n - sum(m)
    if numerator % r != 0:
        return None
    return 1 - g + numerator // r


def deformation_dimension(g: int, n: int, unbalanced_nodes: int = 0) -> int:
    """Dimension 3g - 3 + n of the moduli spot, minus one per unbalanced node."""
    if type(g) is not int or type(n) is not int or g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g!r}, {n!r}) is not stable")
    if type(unbalanced_nodes) is not int or unbalanced_nodes < 0:
        raise ValueError(f"node count must be a nonnegative integer; got {unbalanced_nodes!r}")
    return 3 * g - 3 + n - unbalanced_nodes


def vertex_excess(graph: DualGraph, vid: str, m: tuple[int, ...], heads: tuple[int, ...]) -> int:
    """2g_v - 2 + valence - (incident twists), as an integer; the root needs r to divide it.

    The one statement of the vertex rule; it counts the half edges itself.
    A leg adds 1 - m_i, an edge end 1 - k at the head and 1 + k at the tail.
    Only the legs read m, so the excess is linear in the type.
    """
    total = 2 * graph.genus_of(vid) - 2
    for v, mk in graph.legs:
        if v == vid:
            total += 1 - m[mk - 1]
    for (a, b), k in zip(graph.edges, heads):
        if a == vid:
            total += 1 - k
        if b == vid:
            total += 1 + k
    return total


def vertex_degree_test(graph: DualGraph, vid: str, r: int, m: tuple[int, ...],
                       heads: tuple[int, ...]) -> bool:
    """r divides `vertex_excess`: the root exists on that component.

    Refuses an r that is not a positive int, and an m or heads of the wrong length.
    """
    if type(r) is not int or r < 1:  # bool and float are refused too
        raise ValueError("level r must be a positive integer")
    if len(m) != graph.n_markings:
        raise ValueError(f"type length {len(m)} does not match the {graph.n_markings} legs")
    if len(heads) != len(graph.edges):
        raise ValueError(f"{len(heads)} head twists do not match the {len(graph.edges)} edges")
    return vertex_excess(graph, vid, m, heads) % r == 0


def enumerate_assignments(graph: DualGraph, r: int, m: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All admissible balanced twist assignments, in lexicographic order.

    An assignment is its head twists: one k in {0, .., r-1} per edge, in
    edge order.  The tail of the edge carries the balanced twist -k mod r
    and the legs carry the type residues m mod r, so neither is stored.
    Vertex v has the demand c_v = 2g_v - 2 + valence - (its leg
    twists), and its degree test holds exactly when the edge twists at v
    (k at a head, -k at a tail, nothing from a loop) add up to c_v mod r.
    The demands sum to 2g - 2 + n - sum(m): unless r divides it there is
    no assignment, and otherwise the assignments are one coset of the
    cycle space, r^(E - V + 1) of them (Janda-Pandharipande-Pixton-
    Zvonkine, arXiv:1602.04705).

    The free edges and tree steps are the graph's `_spanning_forest`.  A
    free edge lies on a cycle of itself and later edges (a loop is one), so
    given the edges before it, it takes all r values, and a tree edge is
    determined by the edges before it.  So running through the free edges'
    values in edge order, as the digits of an odometer whose last digit
    turns fastest, and solving the tree edges from the leaves up lists the
    assignments in lexicographic order, with no sort and no test.

    The solve is linear mod r, so it runs once for the row with every free
    edge at 0 and once per free edge f for delta_f, the change that one
    more unit on f makes: 1 on f, 1 or -1 along the tree path between its
    ends (its fundamental cycle), 0 elsewhere.  A step of the odometer raises
    one digit i and wraps each later digit from r - 1 to 0.  A wrap needs
    no undo: it is one more unit on that edge, and r * delta = 0 mod r.  So
    every step adds the suffix sum delta_i + .. + delta_last, which is 0
    off the cycles of those edges.  All but one step in r raise the last
    digit alone, at the cost of one pass over its own cycle.
    """
    if type(r) is not int or r < 1:  # bool and float are refused too
        raise ValueError("level r must be a positive integer")
    if len(m) != graph.n_markings:
        raise ValueError(f"type length {len(m)} does not match the {graph.n_markings} legs")
    if not stability_check(graph):
        raise ValueError("graph is not stable")
    demand = [2 * g - 2 + graph.valence(v) for v, g in graph.vertices]
    for v, mk in graph.legs:
        demand[graph._slot[v]] -= m[mk - 1]
    if sum(demand) % r:
        return []
    free, tree = graph._forest

    def solve(need: list[int], heads: list[int]) -> list[int]:
        # the head twist of a tree edge is sign * (what the subtree below still needs)
        for child, parent, e, sign in tree:
            heads[e] = sign * need[child] % r
            need[parent] += need[child]
        return heads

    heads = solve(demand, [0] * len(graph.edges))
    rows = [tuple(heads)]
    if r == 1:  # one row: skip the deltas, which are all 0 mod 1
        return rows
    suffix, moves = [0] * len(heads), []
    for e, a, b in reversed(free):
        need = [0] * len(demand)
        need[a] -= 1
        need[b] += 1
        delta = solve(need, [0] * len(heads))
        delta[e] = 1
        suffix = [(s + d) % r for s, d in zip(suffix, delta)]
        moves.append([(i, s) for i, s in enumerate(suffix) if s])
    moves.reverse()
    digits, last = [0] * len(free), len(free) - 1
    for _ in range(r ** len(free) - 1):
        i = last
        while digits[i] == r - 1:
            digits[i] = 0
            i -= 1
        digits[i] += 1
        for e, s in moves[i]:
            heads[e] = (heads[e] + s) % r
        rows.append(tuple(heads))
    return rows
