"""Command line front end.

Subcommands: chi, strata, local-model, oracle, verify-algebra.  Reports
are plain text, versioned, and byte-deterministic for fixed inputs.
Each command returns (exit code, report lines) and writes nothing; main
writes the report header and the lines at once when the command returns,
so a refused input leaves stdout empty.
Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from math import isqrt
from operator import itemgetter

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
Report = tuple[int, list[str]]  # (exit code, report lines below the header)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad usage, keeping 2 for suite failures."""

    def error(self, message):
        self.exit(1, f"spinalg: error: {message}\n")


def _prime(explicit: int | None) -> int | None:
    """--p if given, else SPINALG_FIELD_PRIME if set, else None."""
    raw = os.environ.get(PRIME_ENV)
    if explicit is not None or raw is None:
        return explicit
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{PRIME_ENV} must be an integer, got {raw!r}")


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


def _cmd_chi(args) -> Report:
    m = tuple(args.m)
    value = spin_chi(args.g, args.n, args.r, m)
    if value is None:
        numerator = 2 * args.g - 2 + args.n - sum(m)
        value = f"non-integral ({args.r} does not divide {numerator})"
    return 0, [f"g: {args.g}  n: {args.n}  r: {args.r}", _type_lines(m), f"chi = {value}"]


# -- strata ---------------------------------------------------------------


# Each check below names the failing field by a label such as "vertices[3].genus":
# name.format(*at), built only when the check fails.


def _integer(value, name: str, *at: int) -> int:
    """value itself if it is an integer; JSON true and false are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name.format(*at)} must be an integer, got {value!r}")
    return value


def _vertex_id(value, name: str, *at: int) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name.format(*at)} must be a vertex id string, got {value!r}")
    return value


def _array(value, name: str, *at: int) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name.format(*at)} must be a list, got {value!r}")
    return value


def _fields(entry, keys: tuple[str, ...], name: str, *at: int) -> tuple:
    if not isinstance(entry, dict):
        raise ValueError(f"{name.format(*at)} must be a JSON object")
    for k in keys:
        if k not in entry:
            raise ValueError(f"{name.format(*at)} is missing {k!r}")
    return tuple(entry[k] for k in keys)


def parse_graph_document(doc: dict) -> tuple[DualGraph, int, tuple[int, ...], int | None]:
    """Validate a graph JSON document; returns (graph, r, m, field_prime)."""
    r, m, vertex_entries, edge_entries, leg_entries = _fields(
        doc, ("r", "m", "vertices", "edges", "legs"), "graph document")
    if _integer(r, "r") < 1:
        raise ValueError("r must be a positive integer")
    m = tuple(_integer(k, "m[{}]", n) for n, k in enumerate(_array(m, "m")))
    vertices = []
    for n, entry in enumerate(_array(vertex_entries, "vertices")):
        vid, genus = _fields(entry, ("id", "genus"), "vertices[{}]", n)
        vertices.append((_vertex_id(vid, "vertices[{}].id", n),
                         _integer(genus, "vertices[{}].genus", n)))
    edges = []
    for n, edge in enumerate(_array(edge_entries, "edges")):
        if len(_array(edge, "edges[{}]", n)) != 2:
            raise ValueError(f"edges[{n}] must be a pair of vertex ids, got {edge!r}")
        a, b = edge
        edges.append((_vertex_id(a, "edges[{}]", n), _vertex_id(b, "edges[{}]", n)))
    legs = []
    for n, entry in enumerate(_array(leg_entries, "legs")):
        vid, marking = _fields(entry, ("vertex", "marking"), "legs[{}]", n)
        legs.append((_vertex_id(vid, "legs[{}].vertex", n),
                     _integer(marking, "legs[{}].marking", n)))
    graph = DualGraph(tuple(vertices), tuple(edges), tuple(legs))
    if len(m) != graph.n_markings:
        raise ValueError(f"type has {len(m)} entries for {graph.n_markings} legs")
    prime = doc.get("field_prime")
    if prime is not None:
        FieldConfig.for_level(r, _integer(prime, "field_prime"))  # validates p = 1 (mod r)
    return graph, r, m, prime


class _EdgeCells(dict):
    """One edge's listing cells by head twist k, each formatted on its first lookup."""

    __slots__ = ("ends", "label", "r")

    def __init__(self, ends: str, label, r: int):
        self.ends, self.label, self.r = ends, label, r

    def __missing__(self, k: int) -> str:  # the head carries k, the tail -k
        text = self[k] = f"{self.ends}{self.label(k)}|{self.label(-k % self.r)}"
        return text


def _cmd_strata(args) -> Report:
    with open(args.graph, "r", encoding="utf-8") as fh, _nesting_limit("graph JSON"):
        doc = json.load(fh)
    graph, r, m, prime = parse_graph_document(doc)
    assignments = enumerate_assignments(graph, r, m)
    g = graph_genus(graph)
    n = graph.n_markings
    chi = spin_chi(g, n, r, m)
    lines = [f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges, {n} legs",
             f"genus: {g}", "stable: yes", f"r: {r}"]
    if prime is not None:
        lines.append(f"field: p={prime}")
    lines += [_type_lines(m), f"chi = {'non-integral' if chi is None else chi}",
              f"dimension (all nodes balanced): {deformation_dimension(g, n)}",
              f"assignments: {len(assignments)}"]

    @cache  # each twist's label once per report, and only the twists listed
    def label(k: int) -> str:
        return str(index_from_twist(k, r))

    # the legs are pinned by the type: every assignment has the same leg twists
    legs = " ".join(label(mi % r) for mi in m) if assignments else ""
    # One edge column at a time: the column's cells are looked up from C, each cell is
    # formatted on its first lookup, and each row is joined from its columns' cells.
    # Every column reads its twists lazily from the row tuples: no transposed copy.
    columns = [map(_EdgeCells(f"({a},{b}):", label, r).__getitem__,
                   map(itemgetter(e), assignments))
               for e, (a, b) in enumerate(graph.edges)]
    # zip() over no columns yields nothing, but an edgeless graph still lists its row
    rows = map(" ".join, zip(*columns)) if columns else [""] * len(assignments)
    for idx, edges in enumerate(rows, start=1):  # appended one by one: no second list
        lines.append(f"  {idx}. legs [{legs}] edges [{edges}]")
    return 0, lines


# -- local-model ------------------------------------------------------------


def _module_line(pres) -> str:
    if pres.is_free:
        return f"M({pres.i},{pres.j}): free, generator e1"
    return (f"M({pres.i},{pres.j}): generators e1, e2; "
            f"relations t^{pres.j}*e1 = x*e2, t^{pres.i}*e2 = y*e1")


def _grade_name(pres) -> str:
    return f"M({pres.i},{pres.j}){' free' if pres.is_free else ''}"


def _divisors_descending(n: int) -> list[int]:
    """The divisors of n, largest first, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return [n // d for d in small] + [d for d in reversed(small) if d * d != n]


def _cmd_local_model(args) -> Report:
    for flag in ("r", "l"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be a positive integer, got {getattr(args, flag)}")
    if args.r % args.l != 0:
        raise ValueError(f"l={args.l} must divide r={args.r}")
    field = FieldConfig.for_level(args.r, _prime(args.p))
    ring = NodeRing(field, args.l)
    i = args.i % args.l
    j = (args.l - i) % args.l
    pres = make_module(ring, i, j)
    lines = [f"field: p={field.p}, r={field.r}", f"ring: K[t][x,y]/(x*y - t^{args.l})",
             "module " + _module_line(pres)]
    if args.tiers:
        lines.append(f"tiers (d | {args.r}):")
        lines += [f"  d={d}: {_grade_name(pres.grade(args.r // d))}"
                  for d in _divisors_descending(args.r)]
    if args.products:
        for i2 in range(args.l):
            j2 = (args.l - i2) % args.l
            pm = product_map(pres, make_module(ring, i2, j2))
            lines.append(f"product with M({i2},{j2}) -> M({pm.target.i},{pm.target.j}):")
            lines += [f"  (e{a},e{b}) -> {pm.images[a, b]}" for a, b in sorted(pm.images)]
        for d in _divisors_descending(args.r):
            for e in _divisors_descending(d):
                gm = power_map(ring, args.r, d, e, i, j)
                lines.append(f"power {d}->{e} from M({gm.source.module.i},{gm.source.module.j}) "
                             f"to M({gm.target.i},{gm.target.j}):")
                lines += [f"  e1^{gm.source.power - key}e2^{key} -> {gm.images[key]}"
                          for key in sorted(gm.images)]
    if args.window is not None:
        window = algebra_window(ring, i, j, args.r, args.window)
        lines.append(f"window radius {args.window}:")
        lines += [f"  grade {grade}: {_grade_name(window.grades[grade])}"
                  for grade in range(-args.window, args.window + 1)]
        # equal grades share one cached product map: check each map once, count per entry
        maps = window.products.values()
        sound = {gm for gm in set(maps) if check_well_defined(gm) is None}
        checked = sum(1 for gm in maps if gm in sound)
        lines.append(f"products: {len(window.products)} ({checked} well defined)")
    return 0, lines


# -- oracle -----------------------------------------------------------------


_ALLOWED_NAMES = ("z", "w", "t", "S")


def parse_chart_expression(chart: SpinChart, text: str) -> UpstairsElement:
    """Evaluate an arithmetic expression in z, w, t, S on the chart.

    Supports +, -, *, integer ** (negative powers only on S), and
    integer literals; everything else is rejected.
    """
    import ast  # imported here so that no other command loads the parser module

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


def _cmd_oracle(args) -> Report:
    p = _prime(args.p)
    if p is None:
        p = 97  # roomy default so coefficients stay readable
    chart = SpinChart(FieldConfig(p, 1), args.l, args.b)
    elem = parse_chart_expression(chart, args.expr)
    chars = [f"{UpstairsElement(chart, {mon: 1})!r}: {chart.character(mon)}"
             for mon, _c in elem.sorted_terms()]
    return 0, [f"chart: l={args.l}, b={args.b}, p={p}", f"expr: {args.expr}",
               f"normal form: {elem}", "characters: " + ("; ".join(chars) or "(zero)"),
               f"invariant part: {elem.invariant_part()}"]


# -- verify-algebra -----------------------------------------------------------


def _cmd_verify(args) -> Report:
    from . import verify  # imported here so that no other command compiles the suites

    if args.max_r < 1:
        raise ValueError(f"--max-r must be a positive integer, got {args.max_r}")
    results = verify.run_all(max_r=args.max_r)
    passed = all(res.passed for res in results)
    return (0 if passed else 2), [f"max-r: {args.max_r}", *(res.line() for res in results),
                                  f"result: {'PASS' if passed else 'FAIL'}"]


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
        code, lines = args.fn(args)
        sys.stdout.write("\n".join([REPORT_TAG, f"command: {args.cmd}", *lines, ""]))
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"spinalg: error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
