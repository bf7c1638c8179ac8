from __future__ import annotations

from spinalg import verify
from spinalg.dualgraph import enumerate_assignments


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


def test_enumeration_certificate_catches_a_repeat_above_the_brute_force_levels(monkeypatch):
    """Past BRUTE_FORCE_MAX_R no r^E scan runs; the certificate alone must fail."""
    def repeating(graph, r, m):
        listed = enumerate_assignments(graph, r, m)
        return listed + listed[-1:] if r > verify.BRUTE_FORCE_MAX_R else listed

    monkeypatch.setattr(verify, "enumerate_assignments", repeating)
    r = verify.BRUTE_FORCE_MAX_R + 1
    failures = [msg for msg in verify.suite_enumeration(r) if msg is not None]
    assert failures
    assert all(f" r={r} " in msg and "not strictly increasing" in msg for msg in failures)
