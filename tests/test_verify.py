from __future__ import annotations

from spinalg import verify
from spinalg.cli import main
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
    """Past BRUTE_FORCE_MAX_R no r^E scan runs; the certificate alone must fail."""
    def repeating(graph, r, m):
        listed = enumerate_assignments(graph, r, m)
        return listed + listed[-1:] if r > verify.BRUTE_FORCE_MAX_R else listed

    monkeypatch.setattr(verify, "enumerate_assignments", repeating)
    r = verify.BRUTE_FORCE_MAX_R + 1
    failures = [msg for msg in verify.suite_enumeration(r) if msg is not None]
    assert failures
    assert all(f" r={r} " in msg and "not strictly increasing" in msg for msg in failures)
