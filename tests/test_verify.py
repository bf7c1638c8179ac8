from __future__ import annotations

import hashlib

from spinalg import verify
from spinalg.cli import main
from spinalg.dualgraph import enumerate_assignments
from spinalg.modules import ModuleElement, cokernel_length
from spinalg.ring import LaurentElement


def test_suite_run_counts_every_case_and_reports_the_first_ten_failures():
    def fake(bound):
        yield None
        yield from (f"failure {k} below {bound}" for k in range(12))
        yield None

    result = verify.Suite("fake", fake, lambda max_r: (max_r + 1,)).run(4)
    assert result.cases == 14
    assert not result.passed
    assert result.failures == [f"failure {k} below 5" for k in range(12)]
    assert result.line() == "suite fake: FAIL (14 cases)" + "".join(
        f"\n  - failure {k} below 5" for k in range(10))


def _raising(bound):
    yield None
    yield "an ordinary failure"
    raise ValueError(f"broken at {bound}")


def test_a_case_that_raises_is_one_failed_case():
    result = verify.Suite("raising", _raising, lambda max_r: (max_r,)).run(3)
    assert result.cases == 3
    assert result.failures == ["an ordinary failure", "raised ValueError: broken at 3"]


def test_a_raising_suite_fails_the_run_and_the_others_still_run(monkeypatch, capsys):
    suites = list(verify.SUITES)
    suites.insert(1, verify.Suite("raising", _raising, lambda max_r: (max_r,)))
    monkeypatch.setattr(verify, "SUITES", tuple(suites))
    code = main(["verify-algebra", "--max-r", "1"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    lines = out.splitlines()
    at = lines.index("suite raising: FAIL (3 cases)")
    assert lines[at + 1:at + 4] == ["  - an ordinary failure", "  - raised ValueError: broken at 1",
                                    "suite well-definedness: PASS (5 cases)"]
    assert sum(line.startswith("suite ") for line in lines) == len(suites)
    assert lines[-1] == "result: FAIL"


def test_enumeration_certificate_catches_a_repeat_above_the_brute_force_levels(monkeypatch):
    """A repeated row at level 5 fails the certificate before the r^E scan is compared."""
    def repeating(graph, r, m):
        listed = enumerate_assignments(graph, r, m)
        return listed + listed[-1:] if r > 4 else listed

    monkeypatch.setattr(verify, "enumerate_assignments", repeating)
    r = 5
    failures = [msg for msg in verify.suite_enumeration(r) if msg is not None]
    assert failures
    assert all(f" r={r} " in msg and "not strictly increasing" in msg for msg in failures)


def test_stratum_suite_scans_each_graph_and_level_once(monkeypatch):
    """V vertex excesses per head vector, one r^E scan per (graph, r), not one per type."""
    calls = 0
    excess = verify.vertex_excess

    def counting(*args):
        nonlocal calls
        calls += 1
        return excess(*args)

    monkeypatch.setattr(verify, "vertex_excess", counting)
    verify._scan.cache_clear()
    assert all(msg is None for msg in verify.suite_enumeration(4))
    # the loop example lists through enumerate_assignments and adds no call
    bound = sum(r ** len(g.edges) * len(g.vertices)
                for g in verify._graph_family() for r in range(2, 5))
    assert 0 < calls <= bound


# Case count and sha256 of repr(outcomes) per suite at max_r = 3 with every
# element comparison false, every map well defined and every cokernel length
# -1: each suite's case order and failure wording, frozen.
FORCED_FAILURE_DIGESTS = {
    "ring-laws": (600, 600, "9765ad8a2cdd4835304ffab092fca1089493bc7cb89ff5f57ad3c46bd28f75b7"),
    "well-definedness": (70, 32, "e3205a0580c8d80a4f80b720e2ed7ed8e5be85fcfd54ac3901ffe6f7a79fc571"),
    "commutativity": (35, 35, "39e1eafe7cbbfc339427bf454c697064712ef6459927ac4894a8293b4fc64fbe"),
    "associativity": (153, 153, "179a3dfba17d2a969136eece35488ddb6c19d069340a4d433b03557fc5ccdd0b"),
    "power-coherence": (62, 62, "07eab1a5eb8a7481cc1968d573425368d26dadda84695011c4299d28147233d0"),
    "cokernel-length": (22, 22, "3f2dd8166d7c2449bef1b154806314f87519fe627fbdbaba12d131d28e238884"),
    "localized-products": (70, 70, "780bf7ac7ddfade030339ee6e15865a330032e9cbcd9e9440794b8f2b1e868ba"),
    "duality": (21, 3, "86bc165bd582e471ef539b9b9c40c1b6fae66f0d55a2625e9dd458664b9adc41"),
    "automorphisms": (60, 0, "636f9fbf365e1ed5ac88498c13a54c50dfb282675fe2c1bde3cbbc9eb7160e1d"),
    "resolution-exactness": (3, 0, "b5848129e4ec6a5579ed8978bbbb50e9660cb676c4ddd56dc99e28b0db37bb21"),
    "stratum-enumeration": (4512, 0, "403afcad57a26e2d757d531c21fa52cd24d02efc68f69a1d84b23ddbd8adce3a"),
    "closed-forms": (50, 0, "52eae589673ff11b2f118605a9ccd55c433c9445ea3a47ec37ab1dcbb77e925d"),
    "oracle-agreement": (122, 122, "d86fab4fac087846edb6e0602c7b0ce4131a2e83a22ebe7c7546e3d6842f9747"),
}


def test_every_suite_keeps_its_case_order_and_failure_messages(monkeypatch):
    monkeypatch.setattr(ModuleElement, "__eq__", lambda self, other: False)
    monkeypatch.setattr(LaurentElement, "__eq__", lambda self, other: False)
    monkeypatch.setattr(verify, "check_well_defined", lambda gmap: None)
    monkeypatch.setattr(verify, "cokernel_length", lambda gmap: -1)
    got = {}
    for suite in verify.SUITES:
        outcomes = list(suite.generate(*suite.scale(3)))
        got[suite.name] = (len(outcomes), sum(msg is not None for msg in outcomes),
                           hashlib.sha256(repr(outcomes).encode()).hexdigest())
    assert got == FORCED_FAILURE_DIGESTS


def test_graph_family_set_and_order():
    family = verify._graph_family()
    assert len(family) == 421
    assert hashlib.sha256(repr(family).encode()).hexdigest() == (
        "d428f811dca793b27dee5fdd3b34dda15309d5ee5b5dea4f04fce10a3979a5dd")


def test_cokernel_suite_computes_each_distinct_map_once(monkeypatch):
    calls = []

    def counting(gmap):
        calls.append(gmap)
        return cokernel_length(gmap)

    monkeypatch.setattr(verify, "cokernel_length", counting)
    for max_r, cases, distinct in ((3, 22, 13), (6, 157, 67)):
        calls.clear()
        assert list(verify.suite_cokernel(max_r)) == [None] * cases
        assert len(calls) == len({id(gmap) for gmap in calls}) == distinct
