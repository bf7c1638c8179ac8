"""Per-layer tracing installed from outside the program.

A Tracer replaces public entry points of spinalg with wrappers for the
length of one traced pass and puts the originals back afterwards.  Every
wrapper measures its call and adds the duration to its caller's child
time, so a layer's self time is its duration minus the time covered by
the traced calls beneath it.

Boundary calls also record a span (id, name, start, end, parent id, item
id).  The hottest leaf calls (ring multiply and normalize, ring equality,
the vertex degree test, valence, twist decoding, field checks and the
chart multiply) run hundreds of thousands of times per pass, so they keep
only an aggregated count and self time, which bounds the trace's memory.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Stack of open calls, span records and per-name aggregates."""

    def __init__(self):
        # each frame is [child seconds, span id]; the bottom frame is the pass
        self.stack = [[0.0, 0]]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.item_id: int | None = None
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, span: bool, observe=None):
        """Timing wrapper for fn.  observe(args, result, self_s) adds counts.

        A call that raises is not counted; the benchmark counts it as a failed item.
        """
        stack, calls, self_s = self.stack, self.calls, self.self_s
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, 0]
            if span:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if result is NotImplemented:
                # a binary operator declined; the reflected method does the work
                return result
            dur = t1 - t0
            parent[0] += dur
            own = dur - frame[0]
            calls[name] += 1
            self_s[name] += own
            if span:
                spans.append((frame[1], name, t0, t1, parent[1], tracer.item_id))
            if observe is not None:
                observe(args, result, own)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, attr: str, name: str, span: bool, observe=None):
        """Wrap module.attr and every spinalg module global bound to the same object.

        Rebinding the globals too means internal callers that imported the
        function by name are seen, not only calls through `module`.
        """
        orig = getattr(module, attr)
        wrapper = self.wrap(name, orig, span, observe)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "spinalg" or modname.startswith("spinalg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attrs: tuple[str, ...], name: str, span: bool, observe=None):
        """Wrap the methods attrs of cls with one shared wrapper per original."""
        wrappers: dict[int, object] = {}
        for attr in attrs:
            orig = cls.__dict__[attr]
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self.wrap(name, orig, span, observe)
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, wrappers[id(orig)])

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    def item(self, item_id: int, fn, *args):
        """Run one benchmark item under a root span tagged with its id."""
        self.item_id = item_id
        try:
            return self.wrap("bench.item", fn, span=True)(*args)
        finally:
            self.item_id = None

    def write(self, path):
        """Spans as JSON lines: one header, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "item"],
                                 "calls": dict(self.calls),
                                 "self_s": dict(self.self_s)}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer, api) -> None:
    """Wrap the entry points of every layer the per-layer metrics name."""
    counts = tracer.counts

    def mul_observe(args, _result, _own):
        a, b = args
        if len(a.terms) == 1 and (isinstance(b, int) or len(b.terms) == 1):
            counts["ring.mul.mono"] += 1

    def apply_observe(args, _result, own):
        if isinstance(args[0].source, api.modules.SymPowerSource):
            counts["modules.apply.sym_self_s"] += own

    def row_reduce_observe(args, result, _own):
        counts["linalg.rows_in"] += len(args[0])
        counts["linalg.rank_out"] += result[0]

    ring, modules, products, oracle = api.ring, api.modules, api.products, api.oracle
    tracer.patch_method(ring.RingElement, ("__mul__", "__rmul__"), "ring.mul", False, mul_observe)
    tracer.patch_method(ring.NodeRing, ("from_terms",), "ring.from_terms", False)
    tracer.patch_method(ring.NodeRing, ("__eq__",), "ring.ring_eq", False)
    tracer.patch_method(ring.RingElement, ("specialize",), "ring.specialize", False)
    tracer.patch_method(modules.GeneratorMap, ("apply",), "modules.apply", True, apply_observe)
    tracer.patch_function(modules, "check_well_defined", "modules.check_well_defined", True)
    tracer.patch_function(modules, "cokernel_length", "modules.cokernel_length", True)
    tracer.patch_function(products, "compatibility_check", "products.compatibility_check", True)
    tracer.patch_function(products, "power_map", "products.power_map", True)
    tracer.patch_function(products, "product_map", "products.product_map", True)
    tracer.patch_function(oracle, "oracle_sym_power_images", "oracle.sym_power_images", True)
    tracer.patch_function(oracle, "lower_element", "oracle.lower_element", True)
    tracer.patch_method(oracle.UpstairsElement, ("__mul__", "__rmul__"), "oracle.up_mul", False)
    tracer.patch_function(api.linalg, "row_reduce", "linalg.row_reduce", True, row_reduce_observe)
    tracer.patch_function(api.resolution, "resolution_exact_check", "resolution.exact_check", True)
    tracer.patch_function(api.dualgraph, "enumerate_assignments", "dualgraph.enumerate", True)
    tracer.patch_function(api.dualgraph, "vertex_degree_test", "dualgraph.vertex_degree_test", False)
    tracer.patch_method(api.dualgraph.DualGraph, ("valence",), "dualgraph.valence", False)
    tracer.patch_function(api.twists, "index_from_twist", "twists.index_from_twist", False)
    tracer.patch_function(api.cli, "main", "cli.main", True)
    tracer.patch_method(api.field.FieldConfig, ("__post_init__",), "field.field_config", False)
    tracer.patch_function(api.field, "is_prime", "field.is_prime", False)


# Layer metrics reported as "<layer>.calls" and "<layer>.self_s".
CALLS_AND_SELF = (
    "modules.apply", "ring.mul", "ring.from_terms", "ring.specialize",
    "products.compatibility_check", "products.power_map", "products.product_map",
    "oracle.sym_power_images", "oracle.up_mul", "oracle.lower_element",
    "modules.check_well_defined", "modules.cokernel_length",
    "linalg.row_reduce", "resolution.exact_check",
    "dualgraph.enumerate", "dualgraph.vertex_degree_test", "twists.index_from_twist",
)
CALLS_ONLY = ("ring.ring_eq", "dualgraph.valence", "field.field_config", "field.is_prime")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, candidates: int, assignments: int, report_bytes: int,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["modules.apply.sym_share"] = (
        _share(counts["modules.apply.sym_self_s"], self_s.get("modules.apply", 0.0)), "ratio")
    out["ring.mul.mono_share"] = (_share(counts["ring.mul.mono"], calls.get("ring.mul", 0)), "ratio")
    out["linalg.rows_in"] = (int(counts["linalg.rows_in"]), "count")
    out["linalg.pivot_yield"] = (_share(counts["linalg.rank_out"], counts["linalg.rows_in"]), "ratio")
    out["dualgraph.candidates"] = (candidates, "count")
    out["dualgraph.admissible_ratio"] = (_share(assignments, candidates), "ratio")
    out["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    out["cli.report_bytes"] = (report_bytes, "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
