from __future__ import annotations

from spinalg import verify


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
