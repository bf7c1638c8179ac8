"""Command line front end.

Subcommands: chi, strata, local-model, oracle, verify-algebra.  Reports
are plain text, versioned, and byte-deterministic for fixed inputs.
Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from math import isqrt

from .dualgraph import (
    DualGraph,
    deformation_dimension,
    enumerate_assignments,
    graph_genus,
    spin_chi,
)
from .field import FieldConfig
from .modules import check_well_defined, make_module
from .oracle import SpinChart, UpstairsElement
from .products import algebra_window, power_map, product_map
from .ring import NodeRing
from .twists import index_from_twist

REPORT_TAG = "# spinalg report v1"
PRIME_ENV = "SPINALG_FIELD_PRIME"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad usage, keeping 2 for suite failures."""

    def error(self, message):
        self.exit(1, f"spinalg: error: {message}\n")


def _env_prime() -> int | None:
    raw = os.environ.get(PRIME_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{PRIME_ENV} must be an integer, got {raw!r}")


def _field(r: int, explicit: int | None) -> FieldConfig:
    p = explicit if explicit is not None else _env_prime()
    return FieldConfig.for_level(r, p)


@contextmanager
def _nesting_limit(what: str):
    """Report input that nests past the interpreter's recursion limit as a ValueError."""
    try:
        yield
    except RecursionError:
        raise ValueError(f"{what} nests too deeply") from None


def _type_lines(m: tuple[int, ...]) -> str:
    shifted = [k - 1 for k in m]
    return f"type m: {list(m)}  (m-1 shift: {shifted})"


# -- chi ------------------------------------------------------------------


def _cmd_chi(args) -> int:
    m = tuple(args.m)
    value = spin_chi(args.g, args.n, args.r, m)
    print(REPORT_TAG)
    print("command: chi")
    print(f"g: {args.g}  n: {args.n}  r: {args.r}")
    print(_type_lines(m))
    if value is None:
        numerator = 2 * args.g - 2 + args.n - sum(m)
        print(f"chi = non-integral ({args.r} does not divide {numerator})")
    else:
        print(f"chi = {value}")
    return 0


# -- strata ---------------------------------------------------------------


def _integer(value, name: str) -> int:
    """value itself if it is an integer; JSON true and false are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _vertex_id(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a vertex id string, got {value!r}")
    return value


def _array(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _fields(entry, name: str, keys: tuple[str, ...]) -> tuple:
    if not isinstance(entry, dict):
        raise ValueError(f"{name} must be a JSON object")
    for k in keys:
        if k not in entry:
            raise ValueError(f"{name} is missing {k!r}")
    return tuple(entry[k] for k in keys)


def parse_graph_document(doc: dict) -> tuple[DualGraph, int, tuple[int, ...], int | None]:
    """Validate a graph JSON document; returns (graph, r, m, field_prime)."""
    r, m, vertex_entries, edge_entries, leg_entries = _fields(
        doc, "graph document", ("r", "m", "vertices", "edges", "legs"))
    if _integer(r, "r") < 1:
        raise ValueError("r must be a positive integer")
    m = tuple(_integer(k, f"m[{n}]") for n, k in enumerate(_array(m, "m")))
    vertices = []
    for n, entry in enumerate(_array(vertex_entries, "vertices")):
        vid, genus = _fields(entry, f"vertices[{n}]", ("id", "genus"))
        vertices.append((_vertex_id(vid, f"vertices[{n}].id"),
                         _integer(genus, f"vertices[{n}].genus")))
    edges = []
    for n, edge in enumerate(_array(edge_entries, "edges")):
        if len(_array(edge, f"edges[{n}]")) != 2:
            raise ValueError(f"edges[{n}] must be a pair of vertex ids, got {edge!r}")
        edges.append(tuple(_vertex_id(v, f"edges[{n}]") for v in edge))
    legs = []
    for n, entry in enumerate(_array(leg_entries, "legs")):
        vid, marking = _fields(entry, f"legs[{n}]", ("vertex", "marking"))
        legs.append((_vertex_id(vid, f"legs[{n}].vertex"),
                     _integer(marking, f"legs[{n}].marking")))
    graph = DualGraph(tuple(vertices), tuple(edges), tuple(legs))
    if len(m) != graph.n_markings:
        raise ValueError(f"type has {len(m)} entries for {graph.n_markings} legs")
    prime = doc.get("field_prime")
    if prime is not None:
        FieldConfig.for_level(r, _integer(prime, "field_prime"))  # validates p = 1 (mod r)
    return graph, r, m, prime


def graph_document(graph: DualGraph, r: int, m: tuple[int, ...],
                   field_prime: int | None = None) -> dict:
    """The JSON document for a graph; inverse of parse_graph_document."""
    doc = {
        "r": r,
        "m": list(m),
        "vertices": [{"id": v, "genus": g} for v, g in graph.vertices],
        "edges": [[a, b] for a, b in graph.edges],
        "legs": [{"vertex": v, "marking": mk} for v, mk in graph.legs],
    }
    if field_prime is not None:
        doc["field_prime"] = field_prime
    return doc


def _cmd_strata(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh, _nesting_limit("graph JSON"):
        doc = json.load(fh)
    graph, r, m, prime = parse_graph_document(doc)
    # raises on an unstable graph, before any report line is written
    assignments = enumerate_assignments(graph, r, m)
    g = graph_genus(graph)
    n = graph.n_markings
    chi = spin_chi(g, n, r, m)
    lines = [REPORT_TAG, "command: strata",
             f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges, {n} legs",
             f"genus: {g}", "stable: yes", f"r: {r}"]
    if prime is not None:
        lines.append(f"field: p={prime}")
    lines += [_type_lines(m), f"chi = {'non-integral' if chi is None else chi}",
              f"dimension (all nodes balanced): {deformation_dimension(g, n)}",
              f"assignments: {len(assignments)}"]

    @cache  # each twist's label once per report, and only the twists listed
    def label(k: int) -> str:
        return str(index_from_twist(k, r))

    @cache  # each (edge, head twist) cell once per report; the tail carries -k
    def cell(e: int, k: int) -> str:
        a, b = graph.edges[e]
        return f"({a},{b}):{label(k)}|{label(-k % r)}"

    # the legs are pinned by the type: every assignment has the same leg twists
    legs = " ".join(label(mi % r) for mi in m) if assignments else ""
    for idx, heads in enumerate(assignments, start=1):
        edges = " ".join([cell(e, k) for e, k in enumerate(heads)])
        lines.append(f"  {idx}. legs [{legs}] edges [{edges}]")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# -- local-model ------------------------------------------------------------


def _module_line(pres) -> str:
    if pres.is_free:
        return f"M({pres.i},{pres.j}): free, generator e1"
    return (f"M({pres.i},{pres.j}): generators e1, e2; "
            f"relations t^{pres.j}*e1 = x*e2, t^{pres.i}*e2 = y*e1")


def _divisors_descending(n: int) -> list[int]:
    """The divisors of n, largest first, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return [n // d for d in small] + [d for d in reversed(small) if d * d != n]


def _cmd_local_model(args) -> int:
    for flag in ("r", "l"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be a positive integer, got {getattr(args, flag)}")
    if args.r % args.l != 0:
        raise ValueError(f"l={args.l} must divide r={args.r}")
    field = _field(args.r, args.p)
    ring = NodeRing(field, args.l)
    i = args.i % args.l
    j = (args.l - i) % args.l
    pres = make_module(ring, i, j)
    # built before the report so that a bad radius prints nothing
    window = None if args.window is None else algebra_window(ring, i, j, args.r, args.window)
    print(REPORT_TAG)
    print("command: local-model")
    print(f"field: p={field.p}, r={field.r}")
    print(f"ring: K[t][x,y]/(x*y - t^{args.l})")
    print("module " + _module_line(pres))
    if args.tiers:
        print(f"tiers (d | {args.r}):")
        for d in _divisors_descending(args.r):
            tier = pres.grade(args.r // d)
            tag = " free" if tier.is_free else ""
            print(f"  d={d}: M({tier.i},{tier.j}){tag}")
    if args.products:
        for i2 in range(args.l):
            j2 = (args.l - i2) % args.l
            partner = make_module(ring, i2, j2)
            pm = product_map(pres, partner)
            print(f"product with M({i2},{j2}) -> M({pm.target.i},{pm.target.j}):")
            for key in sorted(pm.images):
                print(f"  (e{key[0]},e{key[1]}) -> {pm.images[key]}")
        for d in _divisors_descending(args.r):
            for e in _divisors_descending(d):
                gm = power_map(ring, args.r, d, e, i, j)
                print(f"power {d}->{e} from M({gm.source.module.i},{gm.source.module.j}) "
                      f"to M({gm.target.i},{gm.target.j}):")
                for key in sorted(gm.images):
                    print(f"  e1^{gm.source.power - key}e2^{key} -> {gm.images[key]}")
    if window is not None:
        print(f"window radius {args.window}:")
        for grade in range(-args.window, args.window + 1):
            pres_g = window.grades[grade]
            tag = " free" if pres_g.is_free else ""
            print(f"  grade {grade}: M({pres_g.i},{pres_g.j}){tag}")
        checked = sum(1 for gm in window.products.values()
                      if check_well_defined(gm) is None)
        print(f"products: {len(window.products)} ({checked} well defined)")
    return 0


# -- oracle -----------------------------------------------------------------


_ALLOWED_NAMES = ("z", "w", "t", "S")


def parse_chart_expression(chart: SpinChart, text: str) -> UpstairsElement:
    """Evaluate an arithmetic expression in z, w, t, S on the chart.

    Supports +, -, *, integer ** (negative powers only on S), and
    integer literals; everything else is rejected.
    """
    try:
        with _nesting_limit("expression"):
            tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression: {exc}") from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) is int:  # bool is an int subclass; refuse it
                return chart.const(node.value)
            raise ValueError(f"only integer constants allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id == "z":
                return chart.monomial(z=1)
            if node.id == "w":
                return chart.monomial(w=1)
            if node.id == "t":
                return chart.monomial(t=1)
            if node.id == "S":
                return chart.monomial(s=1)
            raise ValueError(f"unknown name {node.id!r}; use {', '.join(_ALLOWED_NAMES)}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                exp_node = node.right
                sign = 1
                if isinstance(exp_node, ast.UnaryOp) and isinstance(exp_node.op, ast.USub):
                    sign, exp_node = -1, exp_node.operand
                if not (isinstance(exp_node, ast.Constant) and type(exp_node.value) is int):
                    raise ValueError("exponents must be integer literals")
                exp = sign * exp_node.value
                if exp < 0:
                    # only the symbol variable is invertible on the chart
                    if isinstance(node.left, ast.Name) and node.left.id == "S":
                        return chart.monomial(s=exp)
                    raise ValueError("negative powers are allowed on S only")
                return ev(node.left) ** exp
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            raise ValueError("only +, -, *, ** are supported")
        raise ValueError(f"unsupported syntax: {ast.dump(node)}")

    with _nesting_limit("expression"):
        return ev(tree)


def _cmd_oracle(args) -> int:
    p = args.p if args.p is not None else _env_prime()
    if p is None:
        p = 97  # roomy default so coefficients stay readable
    chart = SpinChart(FieldConfig(p, 1), args.l, args.b)
    elem = parse_chart_expression(chart, args.expr)
    print(REPORT_TAG)
    print("command: oracle")
    print(f"chart: l={args.l}, b={args.b}, p={p}")
    print(f"expr: {args.expr}")
    print(f"normal form: {elem}")
    chars = []
    for mon, _c in elem.sorted_terms():
        piece = repr(UpstairsElement(chart, {mon: 1}))
        chars.append(f"{piece}: {chart.character(mon)}")
    print("characters: " + ("; ".join(chars) if chars else "(zero)"))
    print(f"invariant part: {elem.invariant_part()}")
    return 0


# -- verify-algebra -----------------------------------------------------------


def _cmd_verify(args) -> int:
    from . import verify  # imported here so that no other command compiles the suites

    if args.max_r < 1:
        raise ValueError(f"--max-r must be a positive integer, got {args.max_r}")
    print(REPORT_TAG)
    print("command: verify-algebra")
    print(f"max-r: {args.max_r}")
    results = verify.run_all(max_r=args.max_r)
    for res in results:
        print(res.line())
    passed = all(res.passed for res in results)
    print(f"result: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


# -- entry ---------------------------------------------------------------------


@cache  # built on the first call and shared by every later one in the process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinalg",
                     description="Exact local algebra of roots of the log-canonical "
                                 "bundle on nodal curves.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_chi = sub.add_parser("chi", help="Euler characteristic of a root sheaf type")
    p_chi.add_argument("g", type=int)
    p_chi.add_argument("n", type=int)
    p_chi.add_argument("r", type=int)
    p_chi.add_argument("m", type=int, nargs="*")
    p_chi.set_defaults(fn=_cmd_chi)

    p_strata = sub.add_parser("strata", help="admissible twist assignments of a dual graph")
    p_strata.add_argument("graph", help="path to a graph JSON document")
    p_strata.set_defaults(fn=_cmd_strata)

    p_local = sub.add_parser("local-model", help="node ring, module, tiers, and products")
    p_local.add_argument("--r", type=int, required=True)
    p_local.add_argument("--l", type=int, required=True)
    p_local.add_argument("--i", type=int, required=True)
    p_local.add_argument("--p", type=int, default=None, help="field prime (default smallest)")
    p_local.add_argument("--tiers", action="store_true")
    p_local.add_argument("--products", action="store_true")
    p_local.add_argument("--window", type=int, default=None, metavar="RADIUS")
    p_local.set_defaults(fn=_cmd_local_model)

    p_oracle = sub.add_parser("oracle", help="evaluate an expression on the covering chart")
    p_oracle.add_argument("--l", type=int, required=True)
    p_oracle.add_argument("--b", type=int, default=1)
    p_oracle.add_argument("--p", type=int, default=None)
    p_oracle.add_argument("--expr", required=True,
                          help="expression in z, w, t, S; write a leading minus as --expr=-z")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_verify = sub.add_parser("verify-algebra", help="run the property suites")
    p_verify.add_argument("--max-r", type=int, default=6)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"spinalg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
