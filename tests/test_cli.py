from __future__ import annotations

import json

import pytest

from spinalg.cli import graph_document, main, parse_graph_document
from spinalg.dualgraph import DualGraph

LOOP_DOC = {
    "r": 2,
    "m": [1],
    "vertices": [{"id": "v0", "genus": 0}],
    "edges": [["v0", "v0"]],
    "legs": [{"vertex": "v0", "marking": 1}],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chi_report(capsys):
    code, out, _ = run(capsys, "chi", "2", "1", "2", "1")
    assert code == 0
    assert out.startswith("# spinalg report v1\n")
    assert "chi = 0" in out


def test_chi_non_integral(capsys):
    code, out, _ = run(capsys, "chi", "1", "1", "2", "0")
    assert code == 0
    assert "chi = non-integral" in out


def test_chi_rejects_bad_type_length(capsys):
    code, _, err = run(capsys, "chi", "2", "1", "2", "1", "1")
    assert code == 1
    assert "error" in err


def test_strata_loop_graph(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(LOOP_DOC))
    code, out, _ = run(capsys, "strata", str(path))
    assert code == 0
    assert "assignments: 2" in out
    assert "chi = 0" in out
    assert "1(2,1,1)" in out


def test_strata_missing_file(capsys):
    code, _, err = run(capsys, "strata", "/nonexistent/graph.json")
    assert code == 1
    assert "error" in err


def test_strata_invalid_document(tmp_path, capsys):
    doc = dict(LOOP_DOC, m=[1, 2])  # two type entries, one leg
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "strata", str(path))
    assert code == 1
    assert "error" in err


def assert_one_error_line(code, out, err, field):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("spinalg: error:")
    assert field in err


@pytest.mark.parametrize("doc, field", [
    (dict(LOOP_DOC, vertices=[{"id": "v0"}]), "vertices[0] is missing 'genus'"),
    (dict(LOOP_DOC, vertices=[{"id": "v0", "genus": "x"}]), "vertices[0].genus"),
    (dict(LOOP_DOC, edges=[["v0", "v0", "v0"]]), "edges[0]"),
    (dict(LOOP_DOC, legs=[{"vertex": "v0", "marking": True}]), "legs[0].marking"),
    (dict(LOOP_DOC, r=True), "r must be an integer"),
    (dict(LOOP_DOC, edges=[]), "not stable"),  # genus 0 with one leg and no node
], ids=["missing-genus", "string-genus", "three-element-edge", "bool-marking", "bool-r",
        "unstable"])
def test_strata_rejects_malformed_document_with_one_line(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_one_error_line(*run(capsys, "strata", str(path)), field)


@pytest.mark.parametrize("argv, field", [
    (("local-model", "--r", "4", "--l", "0", "--i", "1"), "--l"),
    (("local-model", "--r", "4", "--l", "2", "--i", "1", "--window", "-1"), "window radius"),
    (("chi", "0", "1", "2", "1"), "not stable"),
], ids=["local-model-l-zero", "local-model-short-window", "chi-unstable"])
def test_bad_arguments_exit_with_one_line(capsys, argv, field):
    assert_one_error_line(*run(capsys, *argv), field)


def test_graph_document_roundtrip():
    graph, r, m, prime = parse_graph_document(LOOP_DOC)
    assert isinstance(graph, DualGraph)
    assert (r, m, prime) == (2, (1,), None)
    assert graph_document(graph, r, m) == LOOP_DOC
    with_prime = dict(LOOP_DOC, field_prime=5)
    graph2, r2, m2, prime2 = parse_graph_document(with_prime)
    assert prime2 == 5
    assert graph_document(graph2, r2, m2, prime2) == with_prime


def test_graph_document_rejects_bad_prime():
    with pytest.raises(ValueError):
        parse_graph_document(dict(LOOP_DOC, field_prime=4))


def test_local_model_report(capsys):
    code, out, _ = run(capsys, "local-model", "--r", "4", "--l", "4", "--i", "1", "--tiers")
    assert code == 0
    assert "ring: K[t][x,y]/(x*y - t^4)" in out
    assert "d=1: M(0,0) free" in out


def test_local_model_validates_divisibility(capsys):
    code, _, err = run(capsys, "local-model", "--r", "4", "--l", "3", "--i", "1")
    assert code == 1
    assert "must divide" in err


@pytest.mark.parametrize("p", ["318665857834031151167461", "3317044064679887385961981"])
def test_local_model_rejects_pseudoprime_and_uncertified_moduli(capsys, p):
    # a strong pseudoprime to bases 2..37, then the first modulus past the proven bound
    code, out, err = run(capsys, "local-model", "--r", "2", "--l", "2", "--i", "1", "--p", p)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("spinalg: error:")


def test_oracle_report(capsys):
    code, out, _ = run(capsys, "oracle", "--l", "2", "--p", "5", "--expr", "z*w + S**2")
    assert code == 0
    assert "normal form: S^2 + t" in out
    assert "invariant part: S^2 + t" in out


def test_oracle_rejects_bad_expression(capsys):
    code, _, err = run(capsys, "oracle", "--l", "2", "--expr", "q + 1")
    assert code == 1
    assert "unknown name" in err
    code, _, err = run(capsys, "oracle", "--l", "2", "--expr", "z**-1")
    assert code == 1
    code, _, err = run(capsys, "oracle", "--l", "2", "--expr", "__import__('os')")
    assert code == 1


def test_env_prime_override(monkeypatch, capsys):
    monkeypatch.setenv("SPINALG_FIELD_PRIME", "13")
    code, out, _ = run(capsys, "local-model", "--r", "4", "--l", "2", "--i", "1")
    assert code == 0
    assert "field: p=13, r=4" in out
    monkeypatch.setenv("SPINALG_FIELD_PRIME", "6")
    code, _, err = run(capsys, "local-model", "--r", "4", "--l", "2", "--i", "1")
    assert code == 1


def test_verify_algebra_small(capsys):
    code, out, _ = run(capsys, "verify-algebra", "--max-r", "2")
    assert code == 0
    assert "result: PASS" in out
    for name in ("ring-laws", "cokernel-length", "stratum-enumeration", "oracle-agreement"):
        assert f"suite {name}: PASS" in out


def test_reports_are_byte_deterministic(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(LOOP_DOC))
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "strata", str(path))
        outputs.add(out)
    for _ in range(2):
        _, out, _ = run(capsys, "verify-algebra", "--max-r", "2")
        outputs.add(out)
    assert len(outputs) == 2  # one distinct report per command


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1
