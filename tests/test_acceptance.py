"""Acceptance gate: every suite of `verify.SUITES` at the scale of `--max-r 12`.

Each criterion runs its suites exactly as `spinalg verify-algebra --max-r 12`
does, prints a single pass/fail line per suite, and asserts exact success.
The two long suites also carry runtime ceilings.
"""
from __future__ import annotations

import time

from spinalg import verify

GATE_MAX_R = 12


def _gate(num: int, name: str, ceiling: float | None = None) -> verify.SuiteResult:
    (suite,) = [s for s in verify.SUITES if s.name == name]
    start = time.perf_counter()
    result = suite.run(GATE_MAX_R)
    elapsed = time.perf_counter() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {num} ({name}): {status} ({result.cases} cases) [{elapsed:.1f}s]")
    for line in result.failures[:5]:
        print(f"  {line}")
    assert result.passed, f"criterion {num}: {result.failures[:3]}"
    if ceiling is not None:
        assert elapsed < ceiling, f"runtime target exceeded: {elapsed:.1f}s"
    return result


def test_every_suite_is_gated():
    gated = {"well-definedness", "commutativity", "associativity", "power-coherence",
             "cokernel-length", "localized-products", "automorphisms", "duality",
             "resolution-exactness", "stratum-enumeration", "closed-forms",
             "oracle-agreement", "ring-laws"}
    assert {suite.name for suite in verify.SUITES} == gated


def test_criterion_01_well_definedness():
    _gate(1, "well-definedness", ceiling=60.0)


def test_criterion_02_commutativity_associativity():
    _gate(2, "commutativity")
    _gate(2, "associativity")


def test_criterion_03_power_coherence():
    _gate(3, "power-coherence", ceiling=120.0)


def test_criterion_04_cokernel_lengths():
    _gate(4, "cokernel-length")


def test_criterion_05_localized_agreement():
    _gate(5, "localized-products")


def test_criterion_06_automorphism_orders():
    _gate(6, "automorphisms")


def test_criterion_07_duality():
    _gate(7, "duality")


def test_criterion_08_resolution_exactness():
    _gate(8, "resolution-exactness")


def test_criterion_09_enumeration_oracle():
    _gate(9, "stratum-enumeration")


def test_criterion_10_closed_forms():
    assert _gate(10, "closed-forms").cases == 50


def test_criterion_11_oracle_supremacy():
    _gate(11, "oracle-agreement")


def test_criterion_12_ring_laws():
    _gate(12, "ring-laws")
