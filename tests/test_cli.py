from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from functools import cache
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import spinalg.cli
from spinalg.cli import build_parser, main, parse_graph_document
from spinalg.dualgraph import DualGraph, enumerate_assignments
from spinalg.twists import index_from_twist

LOOP_DOC = {
    "r": 2,
    "m": [1],
    "vertices": [{"id": "v0", "genus": 0}],
    "edges": [["v0", "v0"]],
    "legs": [{"vertex": "v0", "marking": 1}],
}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the argv before main's own checks
        code = exc.code
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


def _path_document(n, r, m, extra=()):
    """Genus-1 vertices v0..v(n-1) joined in a path, one leg at v0.

    Path edges of odd index point backwards; each (position, edge) of extra
    is inserted at that position of the edge list.
    """
    edges = [[f"v{i}", f"v{i + 1}"] if i % 2 == 0 else [f"v{i + 1}", f"v{i}"]
             for i in range(n - 1)]
    for position, edge in extra:
        edges.insert(position, list(edge))
    return {"r": r, "m": [m], "vertices": [{"id": f"v{i}", "genus": 1} for i in range(n)],
            "edges": edges, "legs": [{"vertex": "v0", "marking": 1}]}


def _path_listing(doc, extra_positions):
    """The report lines listing every admissible assignment of a path document.

    Each extra edge takes all r head twists; the path edges, which come in
    path order, are then forced, solved from v0 along the path, and the
    tuples are sorted.
    """
    r = doc["r"]
    edges = [(int(a[1:]), int(b[1:])) for a, b in doc["edges"]]
    demand = [0] * len(doc["vertices"])  # 2g - 2 = 0 at genus 1
    for a, b in edges:
        demand[a] += 1
        demand[b] += 1
    demand[0] += 1 - doc["m"][0] % r  # the leg at v0
    rows = []
    for extra in iproduct(range(r), repeat=len(extra_positions)):
        heads = dict(zip(extra_positions, extra))
        need = demand[:]
        for e, k in heads.items():
            need[edges[e][0]] -= k
            need[edges[e][1]] += k
        for e, (a, b) in enumerate(edges):
            if e not in extra_positions:
                low = min(a, b)  # the edge twist seen from v_low must use up its need
                heads[e] = need[low] % r if a == low else -need[low] % r
                need[low + 1] += need[low]
        rows.append(tuple(heads[e] for e in range(len(edges))))
    label = {k: str(index_from_twist(k, r)) for k in range(r)}
    legs = label[doc["m"][0] % r]
    return [f"  {idx}. legs [{legs}] edges ["
            + " ".join(f"({a},{b}):{label[k]}|{label[-k % r]}"
                       for (a, b), k in zip(doc["edges"], row))
            + "]" for idx, row in enumerate(sorted(rows), start=1)]


# 24 edges at r = 12: a scan of all 12^24 balanced candidates could never finish
@pytest.mark.parametrize("doc, positions, chi, count", [
    (_path_document(23, 12, 0, [(3, ("v22", "v0")), (10, ("v11", "v11"))]), (3, 10),
     "non-integral", 0),
    (_path_document(25, 12, 1), (), "-20", 1),
    (_path_document(23, 12, 1, [(3, ("v22", "v0")), (10, ("v11", "v11"))]), (3, 10), "-20", 144),
])
def test_strata_large_graphs(tmp_path, capsys, doc, positions, chi, count):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "strata", str(path))
    assert (code, err) == (0, "")
    nv = len(doc["vertices"])
    header = ["# spinalg report v1", "command: strata", f"graph: {nv} vertices, 24 edges, 1 legs",
              "genus: 25", "stable: yes", "r: 12",
              f"type m: {doc['m']}  (m-1 shift: [{doc['m'][0] - 1}])", f"chi = {chi}",
              "dimension (all nodes balanced): 73", f"assignments: {count}"]
    listing = _path_listing(doc, positions) if count else []
    assert len(listing) == count
    assert out == "\n".join(header + listing) + "\n"


def test_strata_tree_graph_at_large_level(tmp_path, capsys):
    """A one-edge tree lists its one assignment at r = 10^6 without an O(r) table."""
    doc = {"r": 10**6, "m": [3, 1],
           "vertices": [{"id": "a", "genus": 1}, {"id": "b", "genus": 1}],
           "edges": [["a", "b"]],
           "legs": [{"vertex": "a", "marking": 1}, {"vertex": "b", "marking": 2}]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "strata", str(path))
    assert (code, err) == (0, "")
    assert "assignments: 1" in out
    listing = [line for line in out.splitlines() if line.startswith("  ")]
    assert listing == ["  1. legs [3(1000000,3,999997) 1(1000000,1,999999)] "
                       "edges [(a,b):999999(1000000,999999,1)|1(1000000,1,999999)]"]


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


# Property test at the strata boundary: every document field is drawn from
# JSON values of the expected type or, one time in ten, any other, with r <= 4,
# at most 4 edges, 3 vertices and 3 legs so the r^E scan stays small.
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 4),
                       st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
_json_any = st.recursive(_json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


_one_in_ten = st.sampled_from([False] * 9 + [True])


def _typed_or_any(draw, typed):
    return draw(_json_any) if draw(_one_in_ten) else draw(typed)


@st.composite
def _documents(draw):
    ids = st.sampled_from(["v0", "v1", "v\nx"])  # an id with a newline in it
    n_legs = draw(st.integers(0, 3))
    markings = draw(st.permutations(range(1, n_legs + 1)))
    vertices = [{"id": _typed_or_any(draw, ids), "genus": _typed_or_any(draw, st.integers(-1, 2))}
                for _ in range(draw(st.integers(1, 3)))]
    doc = {
        "r": _typed_or_any(draw, st.integers(1, 4)),
        "m": _typed_or_any(draw, st.lists(st.integers(-5, 5), min_size=n_legs, max_size=n_legs)),
        "vertices": vertices if not draw(_one_in_ten) else draw(_json_any),
        "edges": _typed_or_any(draw, st.lists(st.lists(ids, min_size=2, max_size=2), max_size=4)),
        "legs": [{"vertex": _typed_or_any(draw, ids), "marking": _typed_or_any(draw, st.just(k))}
                 for k in markings],
    }
    if draw(st.booleans()):
        doc["field_prime"] = _typed_or_any(
            draw, st.sampled_from([0, 1, 4, 5, 13, 17, 318665857834031151167461]))
    if draw(_one_in_ten):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


# ids with a newline once split the DualGraph error messages over two lines
@given(st.one_of(_documents(), _json_any))
@example({"r": 1, "m": [0], "vertices": [{"id": "v0", "genus": 1}], "edges": [],
          "legs": [{"vertex": "v\nx", "marking": 1}]})
@example({"r": 2, "m": [], "vertices": [{"id": "v\nx", "genus": -1}], "edges": [], "legs": []})
@example({"r": 2, "m": [], "vertices": [{"id": "v0", "genus": 1}], "edges": [["v0", "v\nx"]],
          "legs": []})
@settings(max_examples=300, deadline=None)
def test_strata_boundary_property(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["strata", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("spinalg: error:")
    else:
        assert err.getvalue() == ""


# Property test at the argument boundary of chi, local-model, oracle and
# verify-algebra: every argv parses (integers where argparse wants them), so
# each reject comes from the program.  r <= 12, window <= r + 1, max-r <= 1
# and a fixed list of short expressions keep each run small.
_small = st.integers(-3, 13)
_primes = st.sampled_from([None, "0", "1", "4", "5", "13", "37", "97", "318665857834031151167461"])
_expressions = st.sampled_from([
    "z*w + S**2", "(z + w + S)**3 - t", "S**-2 + 1", "z**-1", "t**0", "-z", "7", "True",
    "z**True", "1.5", "z/w", "q + 1", "z +", "", "S**-True", "z**(1+1)"])


def _option(name, value):
    return [] if value is None else [name, str(value)]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["chi", "local-model", "oracle", "verify-algebra"]))
    if command == "verify-algebra":
        return ["verify-algebra", "--max-r", str(draw(st.integers(-2, 1)))]
    if command == "chi":
        return ["chi", *(str(draw(_small)) for _ in range(draw(st.integers(3, 7))))]
    if command == "oracle":
        return ["oracle", "--l", str(draw(st.integers(-2, 12))),
                *_option("--b", draw(st.none() | _small)), *_option("--p", draw(_primes)),
                "--expr=" + draw(_expressions)]  # "--expr -z" would read -z as a flag
    r = draw(st.integers(-2, 12))
    window = draw(st.none() | st.integers(-2, max(r, 0) + 1))
    return ["local-model", "--r", str(r), "--l", str(draw(st.integers(-2, 12))),
            "--i", str(draw(_small)), *_option("--p", draw(_primes)),
            *_option("--window", window),
            *[flag for flag in ("--tiers", "--products") if draw(st.booleans())]]


# oracle once read True as 1 and z**True as z
@given(_argvs())
@example(["oracle", "--l", "2", "--expr=True"])
@example(["oracle", "--l", "2", "--expr=z**True"])
@settings(max_examples=300, deadline=None)
def test_argv_boundary_property(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("spinalg: error:")
    else:
        assert err.getvalue() == ""
        if argv[0] == "oracle":
            # a report means the expression names only the chart variables
            expr = argv[-1].removeprefix("--expr=")
            assert set(re.findall(r"[A-Za-z_]\w*", expr)) <= {"z", "w", "t", "S"}


@pytest.mark.parametrize("argv, field", [
    (("local-model", "--r", "4", "--l", "0", "--i", "1"), "--l"),
    (("local-model", "--r", "4", "--l", "2", "--i", "1", "--window", "-1"), "window radius"),
    (("chi", "0", "1", "2", "1"), "not stable"),
    (("verify-algebra", "--max-r", "0"), "--max-r"),
    (("verify-algebra", "--max-r", "-3"), "--max-r"),
    (("local-model", "--r", "x", "--l", "2", "--i", "1"), "--r"),
    (("oracle", "--l", "2", "--expr", "-z"), "--expr"),
    (("verify-algebra", "--max-r"), "--max-r"),
], ids=["local-model-l-zero", "local-model-short-window", "chi-unstable", "verify-max-r-zero",
        "verify-max-r-negative", "local-model-r-not-int", "oracle-expr-leading-minus",
        "verify-max-r-missing"])
def test_bad_arguments_exit_with_one_line(capsys, argv, field):
    assert_one_error_line(*run(capsys, *argv), field)


def test_graph_document_roundtrip():
    graph, r, m, prime = parse_graph_document(LOOP_DOC)
    assert graph == DualGraph((("v0", 0),), (("v0", "v0"),), (("v0", 1),))
    assert (r, m, prime) == (2, (1,), None)
    graph2, r2, m2, prime2 = parse_graph_document(dict(LOOP_DOC, field_prime=5))
    assert (graph2, r2, m2, prime2) == (graph, 2, (1,), 5)


def test_graph_document_rejects_bad_prime():
    with pytest.raises(ValueError):
        parse_graph_document(dict(LOOP_DOC, field_prime=4))


_V0 = {"id": "v0", "genus": 0}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


# One case per raise site of parse_graph_document, then documents with two faults,
# where the first check in document order names the error; each message is pinned whole.
@pytest.mark.parametrize("doc, message", [
    pytest.param([LOOP_DOC], "graph document must be a JSON object", id="document-not-object"),
    pytest.param(_without(LOOP_DOC, "r"), "graph document is missing 'r'",
                 id="document-missing-r"),
    pytest.param(_without(LOOP_DOC, "legs"), "graph document is missing 'legs'",
                 id="document-missing-legs"),
    pytest.param(dict(LOOP_DOC, r="2"), "r must be an integer, got '2'", id="r-string"),
    pytest.param(dict(LOOP_DOC, r=True), "r must be an integer, got True", id="r-bool"),
    pytest.param(dict(LOOP_DOC, r=0), "r must be a positive integer", id="r-zero"),
    pytest.param(dict(LOOP_DOC, m=1), "m must be a list, got 1", id="m-not-list"),
    pytest.param(dict(LOOP_DOC, m=[1.5]), "m[0] must be an integer, got 1.5",
                 id="m-entry-float"),
    pytest.param(dict(LOOP_DOC, vertices={}), "vertices must be a list, got {}",
                 id="vertices-not-list"),
    pytest.param(dict(LOOP_DOC, vertices=[_V0, ["v1", 0]]), "vertices[1] must be a JSON object",
                 id="vertex-not-object"),
    pytest.param(dict(LOOP_DOC, vertices=[{"genus": 0}]), "vertices[0] is missing 'id'",
                 id="vertex-missing-id"),
    pytest.param(dict(LOOP_DOC, vertices=[_V0, {"id": "v1"}]), "vertices[1] is missing 'genus'",
                 id="vertex-missing-genus"),
    pytest.param(dict(LOOP_DOC, vertices=[{"id": 0, "genus": 0}]),
                 "vertices[0].id must be a vertex id string, got 0", id="vertex-id-int"),
    pytest.param(dict(LOOP_DOC, vertices=[{"id": "v0", "genus": 1.0}]),
                 "vertices[0].genus must be an integer, got 1.0", id="vertex-genus-float"),
    pytest.param(dict(LOOP_DOC, edges="v0"), "edges must be a list, got 'v0'",
                 id="edges-not-list"),
    pytest.param(dict(LOOP_DOC, edges=[["v0", "v0"], "v0v0"]),
                 "edges[1] must be a list, got 'v0v0'", id="edge-not-list"),
    pytest.param(dict(LOOP_DOC, edges=[["v0"]]),
                 "edges[0] must be a pair of vertex ids, got ['v0']", id="edge-not-pair"),
    pytest.param(dict(LOOP_DOC, edges=[["v0", 0]]), "edges[0] must be a vertex id string, got 0",
                 id="edge-id-int"),
    pytest.param(dict(LOOP_DOC, legs=None), "legs must be a list, got None", id="legs-not-list"),
    pytest.param(dict(LOOP_DOC, legs=[["v0", 1]]), "legs[0] must be a JSON object",
                 id="leg-not-object"),
    pytest.param(dict(LOOP_DOC, legs=[{"vertex": "v0"}]), "legs[0] is missing 'marking'",
                 id="leg-missing-marking"),
    pytest.param(dict(LOOP_DOC, legs=[{"vertex": ["v0"], "marking": 1}]),
                 "legs[0].vertex must be a vertex id string, got ['v0']", id="leg-vertex-list"),
    pytest.param(dict(LOOP_DOC, legs=[{"vertex": "v0", "marking": True}]),
                 "legs[0].marking must be an integer, got True", id="leg-marking-bool"),
    pytest.param(dict(LOOP_DOC, vertices=[_V0, _V0]), "vertex ids must be unique",
                 id="graph-duplicate-id"),
    pytest.param(dict(LOOP_DOC, vertices=[], edges=[], legs=[], m=[]),
                 "a dual graph needs at least one vertex", id="graph-no-vertex"),
    pytest.param(dict(LOOP_DOC, vertices=[{"id": "v0", "genus": -1}]),
                 "vertex 'v0' has negative genus", id="graph-negative-genus"),
    pytest.param(dict(LOOP_DOC, edges=[["v0", "w"]]), "edge ('v0', 'w') mentions an unknown vertex",
                 id="graph-unknown-edge-end"),
    pytest.param(dict(LOOP_DOC, legs=[{"vertex": "w", "marking": 1}]),
                 "leg at unknown vertex 'w'", id="graph-unknown-leg-vertex"),
    pytest.param(dict(LOOP_DOC, legs=[{"vertex": "v0", "marking": 2}]),
                 "leg markings must be exactly 1..n", id="graph-markings"),
    pytest.param(dict(LOOP_DOC, vertices=[_V0, {"id": "v1", "genus": 2}]),
                 "dual graph must be connected", id="graph-disconnected"),
    pytest.param(dict(LOOP_DOC, m=[1, 2]), "type has 2 entries for 1 legs", id="type-length"),
    pytest.param(dict(LOOP_DOC, field_prime="5"), "field_prime must be an integer, got '5'",
                 id="prime-string"),
    pytest.param(dict(LOOP_DOC, field_prime=True), "field_prime must be an integer, got True",
                 id="prime-bool"),
    pytest.param(dict(LOOP_DOC, field_prime=4), "4 is not prime", id="prime-composite"),
    pytest.param(dict(LOOP_DOC, r=3, field_prime=5), "need p = 1 (mod r); got p=5, r=3",
                 id="prime-not-1-mod-r"),
    pytest.param(dict(LOOP_DOC, field_prime=3317044064679887385961981),
                 "cannot certify primality of 3317044064679887385961981: "
                 "moduli must be below 3317044064679887385961981", id="prime-uncertified"),
    pytest.param(dict(LOOP_DOC, r=0, m="x"), "r must be a positive integer",
                 id="first-fault-r-before-m"),
    pytest.param(dict(LOOP_DOC, m=[True], vertices=None), "m[0] must be an integer, got True",
                 id="first-fault-m-before-vertices"),
    pytest.param(dict(LOOP_DOC, vertices=[{"id": 1, "genus": "g"}]),
                 "vertices[0].id must be a vertex id string, got 1",
                 id="first-fault-id-before-genus"),
    pytest.param(dict(LOOP_DOC, vertices=[_V0, {"id": "v1"}], edges=3),
                 "vertices[1] is missing 'genus'", id="first-fault-vertices-before-edges"),
    pytest.param(dict(LOOP_DOC, edges=[["v0", "v0", "v0"]], legs=3),
                 "edges[0] must be a pair of vertex ids, got ['v0', 'v0', 'v0']",
                 id="first-fault-edges-before-legs"),
    pytest.param(dict(LOOP_DOC, vertices=[_V0, _V0], legs=[{"vertex": "v0", "marking": 0.5}]),
                 "legs[0].marking must be an integer, got 0.5",
                 id="first-fault-fields-before-graph"),
    pytest.param(dict(LOOP_DOC, m=[1, 2], edges=[["v0", "w"]]),
                 "edge ('v0', 'w') mentions an unknown vertex", id="first-fault-graph-before-type"),
    pytest.param(dict(LOOP_DOC, m=[], field_prime=4), "type has 0 entries for 1 legs",
                 id="first-fault-type-before-prime"),
])
def test_graph_document_error_messages(doc, message):
    with pytest.raises(ValueError) as exc:
        parse_graph_document(doc)
    assert str(exc.value) == message


def test_local_model_report(capsys):
    code, out, _ = run(capsys, "local-model", "--r", "4", "--l", "4", "--i", "1", "--tiers")
    assert code == 0
    assert "ring: K[t][x,y]/(x*y - t^4)" in out
    assert "d=1: M(0,0) free" in out


def test_local_model_tiers_list_divisors_without_scanning_r(capsys):
    # 10^12 = 2^12 5^12 has 13 * 13 divisors; a scan of range(r) would not finish
    code, out, _ = run(capsys, "local-model", "--r", str(10**12), "--l", "1", "--i", "0",
                       "--tiers")
    assert code == 0
    assert sum(line.startswith("  d=") for line in out.splitlines()) == 169


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
    # bool is an int subclass in Python; neither True nor z**True is an integer literal
    code, out, err = run(capsys, "oracle", "--l", "2", "--expr", "True")
    assert_one_error_line(code, out, err, "only integer constants allowed")
    code, out, err = run(capsys, "oracle", "--l", "2", "--expr", "z**True")
    assert_one_error_line(code, out, err, "exponents must be integer literals")


@pytest.mark.parametrize("depth, field", [(900, "must be a JSON object"),
                                          (5000, "graph JSON nests too deeply")])
def test_strata_deeply_nested_json_exits_with_one_line(tmp_path, capsys, depth, field):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert_one_error_line(*run(capsys, "strata", str(path)), field)


def test_oracle_deeply_nested_expression(capsys):
    code, out, err = run(capsys, "oracle", "--l", "2", "--expr=" + "-" * 500 + "z")
    assert (code, err) == (0, "")
    assert "normal form: z" in out
    for expr in ("-" * 5000 + "z", "+".join(["z"] * 1000)):
        code, out, err = run(capsys, "oracle", "--l", "2", "--expr=" + expr)
        assert_one_error_line(code, out, err, "expression nests too deeply")


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


GOLDEN = Path(__file__).parent / "golden"

# Three vertices, a repeated edge (once reversed), a loop, three legs whose markings
# are not in vertex order and whose twists are not sorted (one type entry past r),
# and a field prime: 4^(4 - 3 + 1) = 16 listed assignments.
MULTI_LEG_DOC = {
    "r": 4,
    "m": [3, 1, 7],
    "field_prime": 13,
    "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 1}, {"id": "c", "genus": 0}],
    "edges": [["a", "b"], ["b", "a"], ["b", "c"], ["c", "c"]],
    "legs": [{"vertex": "c", "marking": 1}, {"vertex": "a", "marking": 2},
             {"vertex": "b", "marking": 3}],
}

# A triangle a-b-c with a second a-b edge and a loop at c: 3^(5 - 3 + 1) = 27 listed
# assignments.  The free edges are e0, e1 and the loop e4, and the cycles of e0 and e1
# share the tree edge e3, so the listing runs through overlapping cycles and carries.
TWO_CYCLES_DOC = {
    "r": 3,
    "m": [2],
    "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 0}, {"id": "c", "genus": 0}],
    "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "b"], ["c", "c"]],
    "legs": [{"vertex": "a", "marking": 1}],
}

# The files in tests/golden pin report bytes; rewrite one only when its report is meant
# to change.  A dict in an argv stands for the path of that graph document on disk.
GOLDEN_ARGV = {
    "verify_algebra_max_r_3": ["verify-algebra", "--max-r", "3"],
    "local_model_r12_l6_i5":
        ["local-model", "--r", "12", "--l", "6", "--i", "5", "--tiers", "--products"],
    "local_model_r6_l6_i1_window12":
        ["local-model", "--r", "6", "--l", "6", "--i", "1", "--window", "12"],
    "oracle_l3_b2": ["oracle", "--l", "3", "--b", "2", "--expr", "(z+w+S)**4 - 3*z*w + S**-2"],
    "strata_loop": ["strata", LOOP_DOC],
    "strata_multi_leg": ["strata", MULTI_LEG_DOC],
    "strata_two_cycles": ["strata", TWO_CYCLES_DOC],
}


def assert_matches_golden(tmp_path, capsys, name):
    """Run GOLDEN_ARGV[name], its graph documents written under tmp_path, against its file."""
    argv = []
    for n, arg in enumerate(GOLDEN_ARGV[name]):
        if isinstance(arg, dict):
            path = tmp_path / f"{name}-{n}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, ""), name
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


@pytest.mark.parametrize("name", GOLDEN_ARGV)
def test_reports_match_golden_files(tmp_path, capsys, name):
    assert_matches_golden(tmp_path, capsys, name)


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINALG_FIELD_PRIME", raising=False)
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "local-model", "--r", "4", "--l", "2", "--i", "x")
    assert (code, out) == (1, "")
    code, out, _ = run(capsys, "local-model", "--r", "4", "--l", "2", "--i", "1", "--p", "13")
    assert code == 0
    assert "field: p=13, r=4" in out
    code, out, _ = run(capsys, "local-model", "--r", "4", "--l", "2", "--i", "1")
    assert code == 0
    assert "field: p=5, r=4" in out  # the smallest prime = 1 (mod 4), not the 13 before
    for name in GOLDEN_ARGV:
        assert_matches_golden(tmp_path, capsys, name)


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_main_is_the_only_stdout_writer():
    # a command returns its report lines, so a refused input cannot leave half a report
    tree = ast.parse(Path(spinalg.cli.__file__).read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main_def)}
    writes, prints = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func) == "sys.stdout.write":
            writes.append(id(node) in in_main)
        elif isinstance(node.func, ast.Name) and node.func.id == "print":
            prints.append(any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                              for kw in node.keywords))
    assert writes == [True]
    assert prints and all(prints)


# The listing is formatted edge column by edge column.  The reference below is the
# per-cell rule it replaces: each row joins one "(a,b):label(k)|label(-k)" cell per edge,
# over enumerate_assignments, with every label from index_from_twist.


def _reference_listing(doc, assignments=None):
    """The listing lines of a graph document by the per-cell rule, over the given
    assignments or else over enumerate_assignments."""
    graph, r, m, _ = parse_graph_document(doc)
    if assignments is None:
        assignments = enumerate_assignments(graph, r, m)
    label = cache(lambda k: str(index_from_twist(k, r)))
    legs = " ".join(label(mi % r) for mi in m)
    return [f"  {idx}. legs [{legs}] edges ["
            + " ".join(f"({a},{b}):{label(k)}|{label(-k % r)}"
                       for (a, b), k in zip(graph.edges, heads)) + "]"
            for idx, heads in enumerate(assignments, start=1)]


def _strata_report(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["strata", str(path)])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _listing_lines(report):
    """The lines after the report's "assignments: N" line, with N checked against them."""
    lines = report.splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith("assignments: "))
    assert int(lines[at].removeprefix("assignments: ")) == len(lines) - at - 1
    return lines[at + 1:]


@st.composite
def _stable_documents(draw):
    """Connected stable graph documents: a spanning tree on 1-4 vertices, then up to four
    more edges (loops, repeated and reversed edges, overlapping cycles), 0-3 legs, any
    type entries and r from 1 to 4, so at most 4^4 rows."""
    ids = [f"v{k}" for k in range(draw(st.integers(1, 4)))]
    edges = [[ids[draw(st.integers(0, k - 1))], ids[k]] for k in range(1, len(ids))]
    edges += draw(st.lists(st.lists(st.sampled_from(ids), min_size=2, max_size=2),
                           max_size=4))
    edges = [edge[::-1] if draw(st.booleans()) else edge for edge in draw(st.permutations(edges))]
    legs = [{"vertex": draw(st.sampled_from(ids)), "marking": k + 1}
            for k in range(draw(st.integers(0, 3)))]
    vertices = []
    for v in ids:
        valence = sum(edge.count(v) for edge in edges) + sum(leg["vertex"] == v for leg in legs)
        lowest = max(0, (4 - valence) // 2)  # least genus with 2g - 2 + valence > 0
        vertices.append({"id": v, "genus": lowest + draw(st.integers(0, 1))})
    return {"r": draw(st.integers(1, 4)),
            "m": draw(st.lists(st.integers(-9, 9), min_size=len(legs), max_size=len(legs))),
            "vertices": vertices, "edges": edges, "legs": legs}


EDGELESS_DOC = {"r": 1, "m": [], "vertices": [{"id": "v0", "genus": 2}], "edges": [], "legs": []}


@given(_stable_documents())
@example(EDGELESS_DOC)
@example(LOOP_DOC)
@example(MULTI_LEG_DOC)
@example(TWO_CYCLES_DOC)
@example(dict(TWO_CYCLES_DOC, r=1, m=[0]))
@settings(max_examples=200, deadline=None)
def test_listing_matches_the_per_cell_rule(doc):
    assert _listing_lines(_strata_report(doc)) == _reference_listing(doc)


def test_an_edgeless_graph_lists_its_one_row():
    listing = _listing_lines(_strata_report(EDGELESS_DOC))
    assert listing == ["  1. legs [] edges []"]
    doc = dict(EDGELESS_DOC, r=5, m=[3], legs=[{"vertex": "v0", "marking": 1}])
    assert _listing_lines(_strata_report(doc)) == ["  1. legs [3(5,3,2)] edges []"]


@pytest.mark.parametrize("doc", [LOOP_DOC, MULTI_LEG_DOC, TWO_CYCLES_DOC, EDGELESS_DOC,
                                 dict(LOOP_DOC, m=[0])],
                         ids=["loop", "multi-leg", "two-cycles", "edgeless", "no-rows"])
def test_each_listed_twist_is_labelled_once(monkeypatch, doc):
    calls = []

    def counted(k, r):
        calls.append(k)
        return index_from_twist(k, r)

    monkeypatch.setattr(spinalg.cli, "index_from_twist", counted)
    listed = {int(k) for k in re.findall(r"(\d+)\(\d+,\d+,\d+\)",
                                         "\n".join(_listing_lines(_strata_report(doc))))}
    assert sorted(calls) == sorted(listed)


def test_listing_memory_matches_the_per_cell_rule(tmp_path, monkeypatch):
    """40,000 rows: formatting holds no more than the rows it returns, within 5%."""
    doc = {"r": 200, "m": [3], "vertices": [{"id": "v0", "genus": 0}],  # two loops: r^2 rows
           "edges": [["v0", "v0"], ["v0", "v0"]], "legs": [{"vertex": "v0", "marking": 1}]}
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(doc))
    graph, r, m, _ = parse_graph_document(doc)
    listed = enumerate_assignments(graph, r, m)
    assert len(listed) == 40_000
    # both sides format the same list of rows; neither pays for listing them
    monkeypatch.setattr(spinalg.cli, "enumerate_assignments", lambda *_args: listed)
    args = build_parser().parse_args(["strata", str(path)])

    def peak(format_listing):
        tracemalloc.start()
        try:
            lines = format_listing()
            return tracemalloc.get_traced_memory()[1], lines
        finally:
            tracemalloc.stop()

    reference_peak, reference = peak(lambda: _reference_listing(doc, listed))
    listing_peak, (code, lines) = peak(lambda: spinalg.cli._cmd_strata(args))
    assert (code, lines[-len(reference):]) == (0, reference)
    assert listing_peak <= 1.05 * reference_peak, (listing_peak, reference_peak)
