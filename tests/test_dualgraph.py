from __future__ import annotations

import tracemalloc
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings, strategies as st

from spinalg import verify
from spinalg.dualgraph import (
    DualGraph,
    deformation_dimension,
    enumerate_assignments,
    graph_genus,
    spin_chi,
    stability_check,
    vertex_degree_test,
)


def loop_graph() -> DualGraph:
    return DualGraph((("v0", 0),), (("v0", "v0"),), (("v0", 1),))


def two_vertex_graph() -> DualGraph:
    return DualGraph(
        (("a", 1), ("b", 1)),
        (("a", "b"),),
        (("a", 1), ("b", 2)),
    )


def test_graph_validation():
    with pytest.raises(ValueError):
        DualGraph((("v", 0), ("v", 1)), (), ())  # duplicate id
    with pytest.raises(ValueError):
        DualGraph((("v", -1),), (), ())  # negative genus
    with pytest.raises(ValueError):
        DualGraph((("v", 0),), (("v", "w"),), ())  # unknown endpoint
    with pytest.raises(ValueError):
        DualGraph((("v", 1),), (), (("v", 2),))  # markings must be 1..n
    with pytest.raises(ValueError):
        DualGraph((("v", 1), ("w", 1)), (), ())  # disconnected


@pytest.mark.parametrize("vertices, legs", [
    ((("v", 1.5),), ()),
    ((("v", 1.0),), ()),
    ((("v", True),), ()),
    ((("v", "1"),), ()),
    ((("v", 1),), (("v", True),)),
    ((("v", 1),), (("v", 1.0),)),
], ids=["genus-1.5", "genus-1.0", "genus-true", "genus-string", "marking-true", "marking-1.0"])
def test_graph_refuses_a_genus_or_marking_that_is_not_an_int(vertices, legs):
    with pytest.raises(ValueError, match="not an integer"):
        DualGraph(vertices, (("v", "v"),), legs)


@pytest.mark.parametrize("r", [True, 2.0, "2", 0, -1])
def test_enumeration_refuses_a_level_that_is_not_a_positive_int(r):
    with pytest.raises(ValueError, match="level r must be a positive integer"):
        enumerate_assignments(loop_graph(), r, (1,))


def test_genus_and_valence():
    g = loop_graph()
    assert graph_genus(g) == 1
    assert g.valence("v0") == 3  # loop counts twice plus one leg
    h = two_vertex_graph()
    assert graph_genus(h) == 2
    assert h.valence("a") == 2


def test_unknown_vertex_is_refused_by_every_lookup():
    g = two_vertex_graph()
    for lookup in (g.valence, g.genus_of):
        with pytest.raises(ValueError, match="unknown vertex 'nope'"):
            lookup("nope")
        with pytest.raises(ValueError, match=r"unknown vertex \['a'\]"):
            lookup(["a"])


def test_the_index_is_not_a_field():
    g, h = two_vertex_graph(), two_vertex_graph()
    assert DualGraph._fields == ("vertices", "edges", "legs")
    assert g == h and hash(g) == hash(h)
    assert repr(g) == f"DualGraph(vertices={g.vertices!r}, edges={g.edges!r}, legs={g.legs!r})"


def test_stability():
    assert stability_check(loop_graph())
    assert stability_check(two_vertex_graph())
    # a genus-0 vertex with only two half-edges is unstable
    bad = DualGraph((("a", 0), ("b", 1)), (("a", "b"),), (("a", 1),))
    assert not stability_check(bad)


def test_spin_chi_closed_form():
    assert spin_chi(2, 1, 2, (1,)) == 0
    assert spin_chi(0, 3, 1, (0, 0, 0)) == 2
    assert spin_chi(2, 1, 4, (3,)) == -1
    assert spin_chi(1, 1, 2, (0,)) is None  # 1 not divisible by 2
    with pytest.raises(ValueError):
        spin_chi(2, 1, 2, (1, 1))  # wrong type length
    with pytest.raises(ValueError):
        spin_chi(0, 2, 2, (0, 0))  # unstable


def test_deformation_dimension():
    assert deformation_dimension(2, 1) == 4
    assert deformation_dimension(2, 1, unbalanced_nodes=2) == 2
    assert deformation_dimension(0, 4) == 1


@pytest.mark.parametrize("call, args, message", [
    (spin_chi, (2, 1, 0, (1,)), "level r must be a positive integer"),
    (spin_chi, (2, 1, True, (1,)), "level r must be a positive integer"),
    (spin_chi, (2, 1, 2.0, (1,)), "level r must be a positive integer"),
    (spin_chi, (2, 1, 2, (1, 1)), "type length 2 does not match n=1"),
    (spin_chi, (0, 2, 2, (0, 0)), "(g, n) = (0, 2) is not stable"),
    (spin_chi, (2.0, 1, 2, (1,)), "(g, n) = (2.0, 1) is not stable"),
    (spin_chi, (2, True, 2, (1,)), "(g, n) = (2, True) is not stable"),
    (spin_chi, (2, 1, 2, (True,)), "type entries must be integers; got m=(True,)"),
    (spin_chi, (2, 1, 2, (1.0,)), "type entries must be integers; got m=(1.0,)"),
    (deformation_dimension, (0, 2), "(g, n) = (0, 2) is not stable"),
    (deformation_dimension, (True, 1), "(g, n) = (True, 1) is not stable"),
    (deformation_dimension, (2, 1.0), "(g, n) = (2, 1.0) is not stable"),
    (deformation_dimension, (2, 1, -1), "node count must be a nonnegative integer; got -1"),
    (deformation_dimension, (2, 1, True), "node count must be a nonnegative integer; got True"),
    (deformation_dimension, (2, 1, 1.0), "node count must be a nonnegative integer; got 1.0"),
])
def test_closed_forms_refuse_a_non_integer_or_out_of_range_argument(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


def test_vertex_degree_test():
    assert_vertex_degree_answers()


def test_vertex_degree_test_counts_half_edges_itself(monkeypatch):
    """The vertex rule reads no valence, so a broken valence cannot hide from it."""
    def broken(self, vid):
        raise AssertionError("vertex_degree_test must not read DualGraph.valence")

    monkeypatch.setattr(DualGraph, "valence", broken)
    assert_vertex_degree_answers()


def assert_vertex_degree_answers():
    g = loop_graph()
    assert vertex_degree_test(g, "v0", 2, (1,), (0,))
    assert not vertex_degree_test(g, "v0", 2, (0,), (0,))
    # both ends need 2 mod 3: the head a takes k = 2, the tail b takes -k, so k = 1
    h = two_vertex_graph()
    assert vertex_degree_test(h, "a", 3, (0, 0), (2,))
    assert not vertex_degree_test(h, "b", 3, (0, 0), (2,))
    assert vertex_degree_test(h, "b", 3, (0, 0), (1,))
    assert not vertex_degree_test(h, "a", 3, (0, 0), (1,))


@pytest.mark.parametrize("r, m, heads, message", [
    (True, (0, 0), (2,), "level r must be a positive integer"),
    (0, (0, 0), (2,), "level r must be a positive integer"),
    (-3, (0, 0), (2,), "level r must be a positive integer"),
    (3.0, (0, 0), (2,), "level r must be a positive integer"),
    (3, (0, 0, 0), (2,), "type length 3 does not match the 2 legs"),
    (3, (0,), (2,), "type length 1 does not match the 2 legs"),
    (3, (0, 0), (), "0 head twists do not match the 1 edges"),
    (3, (0, 0), (2, 2), "2 head twists do not match the 1 edges"),
], ids=["r-true", "r-zero", "r-negative", "r-float", "type-long", "type-short",
        "heads-short", "heads-long"])
def test_vertex_degree_test_refuses_a_bad_level_type_or_head_vector(r, m, heads, message):
    with pytest.raises(ValueError) as info:
        vertex_degree_test(two_vertex_graph(), "a", r, m, heads)
    assert str(info.value) == message


def test_loop_graph_worked_example():
    g = loop_graph()
    assert len(enumerate_assignments(g, 2, (1,))) == 2
    assert len(enumerate_assignments(g, 2, (0,))) == 0


def test_assignments_are_balanced_and_admissible():
    g = two_vertex_graph()
    for r in (2, 3, 4):
        for m1 in range(r):
            for m2 in range(r):
                for heads in enumerate_assignments(g, r, (m1, m2)):
                    assert len(heads) == len(g.edges)
                    assert all(0 <= k < r for k in heads)
                    for vid, _ in g.vertices:
                        assert vertex_degree_test(g, vid, r, (m1, m2), heads)


def test_assignment_count_deterministic():
    g = two_vertex_graph()
    first = enumerate_assignments(g, 4, (1, 1))
    second = enumerate_assignments(g, 4, (1, 1))
    assert first == second


@st.composite
def _stable_graphs(draw):
    """Connected stable graphs, at most 5 vertices and 7 edges, loops and
    multi-edges allowed, edges in any order and orientation."""
    vids = [f"v{k}" for k in range(draw(st.integers(1, 5)))]
    edges = [(vids[draw(st.integers(0, k - 1))], vids[k]) for k in range(1, len(vids))]
    ends = st.tuples(st.sampled_from(vids), st.sampled_from(vids))
    edges = draw(st.permutations(edges + draw(st.lists(ends, max_size=8 - len(vids)))))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]
    legs = [(draw(st.sampled_from(vids)), k + 1) for k in range(draw(st.integers(0, 3)))]
    vertices = []
    for v in vids:
        valence = sum((a == v) + (b == v) for a, b in edges) + sum(w == v for w, _ in legs)
        lowest = max(0, (4 - valence) // 2)  # least genus with 2g - 2 + valence > 0
        vertices.append((v, lowest + draw(st.integers(0, 1))))
    return DualGraph(tuple(vertices), tuple(edges), tuple(legs))


@given(_stable_graphs(), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_enumeration_matches_brute_force_in_order(graph, r, data):
    m = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=graph.n_markings,
                                 max_size=graph.n_markings)))
    # the per-type scan stops at a vertex that fails; the test below ties it to the one scan
    assert enumerate_assignments(graph, r, m) == _reference_assignments(graph, r, m)


def _reference_assignments(graph, r, m):
    """The per-type scan: r^E head vectors, each tested at every vertex at type m."""
    return [heads for heads in iproduct(range(r), repeat=len(graph.edges))
            if all(vertex_degree_test(graph, v, r, m, heads) for v, _g in graph.vertices)]


def test_one_scan_per_level_matches_the_per_type_scan_on_the_graph_family():
    for graph in verify._graph_family():
        for r in range(1, 5):
            for m in iproduct(range(r), repeat=graph.n_markings):
                assert verify._brute_force_assignments(graph, r, m) == \
                    _reference_assignments(graph, r, m), (graph, r, m)


@given(_stable_graphs(), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_one_scan_per_level_matches_the_per_type_scan(graph, r, data):
    """Any type, negative or at least r, reads its bucket of the one scan."""
    assume(r ** len(graph.edges) <= 1296)
    m = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=graph.n_markings,
                                 max_size=graph.n_markings)))
    assert verify._brute_force_assignments(graph, r, m) == _reference_assignments(graph, r, m)


@given(_stable_graphs(), st.integers(5, 9), st.data())
@settings(max_examples=100, deadline=None)
def test_enumeration_is_a_certified_coset_beyond_brute_force(graph, r, data):
    """At r = 5..9, past the r^E scan: r^(E - V + 1) rows or none, increasing, admissible."""
    coset = r ** (len(graph.edges) - len(graph.vertices) + 1)
    assume(coset <= 1024)
    m = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=graph.n_markings,
                                 max_size=graph.n_markings)))
    listed = enumerate_assignments(graph, r, m)
    integral = (2 * graph_genus(graph) - 2 + graph.n_markings - sum(m)) % r == 0
    assert len(listed) == (coset if integral else 0)
    assert all(a < b for a, b in zip(listed, listed[1:]))
    for heads in listed:
        assert len(heads) == len(graph.edges) and all(0 <= k < r for k in heads)
        assert all(vertex_degree_test(graph, v, r, m, heads) for v, _g in graph.vertices)


def test_enumeration_memory_does_not_grow_with_r():
    """A tree graph has one assignment at any level; listing it needs no O(r) table."""
    g = two_vertex_graph()  # demands 2 - 3 at a and 2 - 1 at b: the head twist is -1
    r = 10**6
    tracemalloc.start()
    try:
        listed = enumerate_assignments(g, r, (3, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert listed == [(r - 1,)]
    assert all(vertex_degree_test(g, v, r, (3, 1), listed[0]) for v, _g in g.vertices)
    assert peak < 2**20


# -- the graph index against the definitions it replaced ----------------------


def _reference_connected(vertices, edges) -> bool:
    """Search from the first vertex, scanning every edge at each vertex."""
    ids = [v for v, _g in vertices]
    seen, frontier = {ids[0]}, [ids[0]]
    while frontier:
        cur = frontier.pop()
        for a, b in edges:
            for nxt in ((b,) if a == cur else ()) + ((a,) if b == cur else ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return len(seen) == len(ids)


def _reference_valence(graph, vid) -> int:
    val = sum(1 for v, _m in graph.legs if v == vid)
    for a, b in graph.edges:
        val += (a == vid) + (b == vid)
    return val


def _reference_genus_of(graph, vid) -> int:
    return next(g for v, g in graph.vertices if v == vid)


def _reference_stability(graph) -> bool:
    """Every vertex clause and the global clause, both tested."""
    for v, g in graph.vertices:
        if 2 * g - 2 + _reference_valence(graph, v) <= 0:
            return False
    return 2 * graph_genus(graph) - 2 + graph.n_markings > 0


@st.composite
def _any_graphs(draw):
    """(vertices, edges, legs) of up to 6 vertices and 8 edges, connected or not."""
    vids = [f"v{k}" for k in range(draw(st.integers(1, 6)))]
    vertices = tuple((v, draw(st.integers(0, 2))) for v in vids)
    ends = st.tuples(st.sampled_from(vids), st.sampled_from(vids))
    edges = tuple(draw(st.lists(ends, max_size=8)))
    legs = tuple((draw(st.sampled_from(vids)), k + 1) for k in range(draw(st.integers(0, 3))))
    return vertices, edges, legs


@given(_any_graphs())
@settings(max_examples=300, deadline=None)
def test_index_matches_the_reference_definitions(parts):
    vertices, edges, legs = parts
    if not _reference_connected(vertices, edges):
        with pytest.raises(ValueError, match="dual graph must be connected"):
            DualGraph(vertices, edges, legs)
        return
    graph = DualGraph(vertices, edges, legs)
    for v, _g in vertices:
        assert graph.valence(v) == _reference_valence(graph, v)
        assert graph.genus_of(v) == _reference_genus_of(graph, v)
    assert stability_check(graph) == _reference_stability(graph)


class _CountingEdges(tuple):
    """An edge tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_a_long_path_is_read_a_bounded_number_of_times():
    """Validation, stability and enumeration read the edges O(1) times, not O(V)."""
    n = 2000
    vids = [f"v{k}" for k in range(n)]
    edges = _CountingEdges(zip(vids, vids[1:]))
    g = DualGraph(tuple((v, 1) for v in vids), edges, (("v0", 1),))
    assert stability_check(g)
    # the demands are 1 at the far end and 2 elsewhere (m = 0): their sum 3999 is 0 mod 3
    assert len(enumerate_assignments(g, 3, (0,))) == 1
    assert edges.iterations <= 5


def test_listing_certificate_catches_a_corrupted_valence():
    """The certificate's vertex rule counts half edges itself, so a bad index shows."""
    g = two_vertex_graph()
    object.__setattr__(g, "_valence", (g.valence("a") + 1, g.valence("b")))
    failures = []
    for r in range(2, 5):
        for m in iproduct(range(r), repeat=g.n_markings):
            closed = 0 if (2 * graph_genus(g) - 2 + g.n_markings - sum(m)) % r else 1  # a tree
            failures.append(verify._listing_failure(g, r, m, enumerate_assignments(g, r, m), closed))
    assert any(msg and "passing every vertex test" in msg for msg in failures)
