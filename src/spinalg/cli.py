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

from . import verify
from .dualgraph import (
    DualGraph,
    deformation_dimension,
    enumerate_assignments,
    graph_genus,
    spin_chi,
    stability_check,
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
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _type_lines(m: tuple[int, ...]) -> str:
    shifted = [k - 1 for k in m]
    return f"type m: {list(m)}  (m-1 shift: {shifted})"


# -- chi ------------------------------------------------------------------


def _cmd_chi(args) -> int:
    m = tuple(args.m)
    print(REPORT_TAG)
    print("command: chi")
    print(f"g: {args.g}  n: {args.n}  r: {args.r}")
    print(_type_lines(m))
    value = spin_chi(args.g, args.n, args.r, m)
    if value is None:
        numerator = 2 * args.g - 2 + args.n - sum(m)
        print(f"chi = non-integral ({args.r} does not divide {numerator})")
    else:
        print(f"chi = {value}")
    return 0


# -- strata ---------------------------------------------------------------


def parse_graph_document(doc: dict) -> tuple[DualGraph, int, tuple[int, ...], int | None]:
    """Validate a graph JSON document; returns (graph, r, m, field_prime)."""
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    for k in ("r", "m", "vertices", "edges", "legs"):
        if k not in doc:
            raise ValueError(f"graph document is missing {k!r}")
    r = doc["r"]
    if not isinstance(r, int) or r < 1:
        raise ValueError("r must be a positive integer")
    m = tuple(doc["m"])
    if not all(isinstance(k, int) for k in m):
        raise ValueError("type entries must be integers")
    vertices = tuple((v["id"], v["genus"]) for v in doc["vertices"])
    edges = tuple((a, b) for a, b in doc["edges"])
    legs = tuple((leg["vertex"], leg["marking"]) for leg in doc["legs"])
    graph = DualGraph(vertices, edges, legs)
    if len(m) != graph.n_markings:
        raise ValueError(f"type has {len(m)} entries for {graph.n_markings} legs")
    prime = doc.get("field_prime")
    if prime is not None:
        FieldConfig.for_level(r, prime)  # validates p = 1 (mod r)
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
    with open(args.graph, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    graph, r, m, prime = parse_graph_document(doc)
    g = graph_genus(graph)
    n = graph.n_markings
    print(REPORT_TAG)
    print("command: strata")
    print(f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges, {n} legs")
    print(f"genus: {g}")
    print(f"stable: {'yes' if stability_check(graph) else 'no'}")
    print(f"r: {r}")
    if prime is not None:
        print(f"field: p={prime}")
    print(_type_lines(m))
    chi = spin_chi(g, n, r, m)
    print(f"chi = {'non-integral' if chi is None else chi}")
    print(f"dimension (all nodes balanced): {deformation_dimension(g, n)}")
    assignments = enumerate_assignments(graph, r, m)
    print(f"assignments: {len(assignments)}")
    for idx, asg in enumerate(assignments, start=1):
        legs = " ".join(str(index_from_twist(k, r)) for k in asg.leg_twists)
        edges = " ".join(
            f"({a},{b}):{index_from_twist(k1, r)}|{index_from_twist(k2, r)}"
            for (a, b), (k1, k2) in zip(graph.edges, asg.edge_twists))
        print(f"  {idx}. legs [{legs}] edges [{edges}]")
    return 0


# -- local-model ------------------------------------------------------------


def _module_line(pres) -> str:
    if pres.is_free:
        return f"M({pres.i},{pres.j}): free, generator e1"
    return (f"M({pres.i},{pres.j}): generators e1, e2; "
            f"relations t^{pres.j}*e1 = x*e2, t^{pres.i}*e2 = y*e1")


def _cmd_local_model(args) -> int:
    if args.r % args.l != 0:
        raise ValueError(f"l={args.l} must divide r={args.r}")
    field = _field(args.r, args.p)
    ring = NodeRing(field, args.l)
    i = args.i % args.l if args.l > 1 else 0
    j = (args.l - i) % args.l if args.l > 1 else 0
    pres = make_module(ring, i, j)
    print(REPORT_TAG)
    print("command: local-model")
    print(f"field: p={field.p}, r={field.r}")
    print(f"ring: K[t][x,y]/(x*y - t^{args.l})")
    print("module " + _module_line(pres))
    if args.tiers:
        print(f"tiers (d | {args.r}):")
        for d in (d for d in range(args.r, 0, -1) if args.r % d == 0):
            scale = args.r // d
            tier = make_module(ring, (i * scale) % args.l, (j * scale) % args.l)
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
        for d in (d for d in range(args.r, 0, -1) if args.r % d == 0):
            for e in (e for e in range(d, 0, -1) if d % e == 0):
                gm = power_map(ring, args.r, d, e, i, j)
                print(f"power {d}->{e} from M({gm.source.module.i},{gm.source.module.j}) "
                      f"to M({gm.target.i},{gm.target.j}):")
                for key in sorted(gm.images):
                    print(f"  e1^{gm.source.power - key}e2^{key} -> {gm.images[key]}")
    if args.window is not None:
        window = algebra_window(ring, i, j, args.r, args.window)
        print(f"window radius {args.window}:")
        for grade in range(-args.window, args.window + 1):
            pres_g = window.grade(grade)
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
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression: {exc}") from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
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
                if not (isinstance(exp_node, ast.Constant) and isinstance(exp_node.value, int)):
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
    p_oracle.add_argument("--expr", required=True)
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"spinalg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
