from __future__ import annotations

import pytest

from spinalg.dualgraph import (
    DualGraph,
    TwistAssignment,
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


def test_genus_and_valence():
    g = loop_graph()
    assert graph_genus(g) == 1
    assert g.valence("v0") == 3  # loop counts twice plus one leg
    h = two_vertex_graph()
    assert graph_genus(h) == 2
    assert h.valence("a") == 2


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


def test_vertex_degree_test():
    g = loop_graph()
    asg = TwistAssignment(2, (1,), ((0, 0),))
    assert vertex_degree_test(g, "v0", asg)
    asg_bad = TwistAssignment(2, (0,), ((0, 0),))
    assert not vertex_degree_test(g, "v0", asg_bad)


def test_loop_graph_worked_example():
    g = loop_graph()
    assert len(enumerate_assignments(g, 2, (1,))) == 2
    assert len(enumerate_assignments(g, 2, (0,))) == 0


def test_assignments_are_balanced_and_admissible():
    g = two_vertex_graph()
    for r in (2, 3, 4):
        for m1 in range(r):
            for m2 in range(r):
                for asg in enumerate_assignments(g, r, (m1, m2)):
                    for k1, k2 in asg.edge_twists:
                        assert (k1 + k2) % r == 0
                    for vid, _ in g.vertices:
                        assert vertex_degree_test(g, vid, asg)
                    assert asg.leg_twists == (m1 % r, m2 % r)


def test_assignment_count_deterministic():
    g = two_vertex_graph()
    first = enumerate_assignments(g, 4, (1, 1))
    second = enumerate_assignments(g, 4, (1, 1))
    assert first == second
