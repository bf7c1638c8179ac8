"""The benchmark's per-layer tracer still finds every entry point it wraps by name.

perfbench/tracing.py patches spinalg functions and methods by attribute
name, so a renamed or deleted entry point would otherwise fail only a
traced benchmark run.  This test loads the harness as it runs (through
perfbench/run.py's load_api), installs the tracer, makes a few calls and
uninstalls it again; it reads perfbench/ and changes nothing there.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(target, attr):
    return target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)


def test_tracer_installs_on_every_entry_point_and_uninstalls():
    run = _load_run()
    api = run.load_api()
    tracer = run.Tracer()
    run.install(tracer, api)
    patched = list(tracer._restore)
    try:
        assert patched
        for target, attr, orig in patched:
            assert _bound(target, attr).__wrapped__ is orig, (target, attr)
        ring = api.ring.NodeRing(api.field.FieldConfig.for_level(2), 2)
        length = api.modules.cokernel_length(api.products.power_map(ring, 2, 2, 1, 1, 1))
        # positional, as the cokernel workload calls it
        exact = api.resolution.resolution_exact_check(api.field.FieldConfig(5, 1), 8)
    finally:
        tracer.uninstall()
    assert length == 1
    assert exact
    for name in ("modules.cokernel_length", "modules.check_well_defined", "ring.specialize",
                 "products.power_map", "ring.mul", "linalg.row_reduce", "resolution.exact_check"):
        assert tracer.calls[name] > 0, name
    for target, attr, orig in patched:
        assert _bound(target, attr) is orig, (target, attr)


def test_tracer_sees_the_strata_path_through_the_cached_parser(tmp_path):
    """The parser is built once per process, yet dispatch still reaches the patched globals."""
    run = _load_run()
    api = run.load_api()
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"r": 3, "m": [1], "vertices": [{"id": "v0", "genus": 0}],
                                "edges": [["v0", "v0"]],
                                "legs": [{"vertex": "v0", "marking": 1}]}))

    def strata():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert api.cli.main(["strata", str(path)]) == 0
        return out.getvalue()

    untraced = strata()
    tracer = run.Tracer()
    run.install(tracer, api)
    try:
        traced = strata()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert "assignments: 3" in traced
    for name in ("cli.main", "dualgraph.enumerate", "twists.index_from_twist"):
        assert tracer.calls[name] > 0, name


def _traced_tiers_pass(run, api, tmp_path):
    """Counts of one untraced and then one traced --tiny tiers pass (seed 1)."""
    wl = run.WORKLOADS["tiers"](1, True, tmp_path)
    run.run_pass(api, wl)
    tracer = run.Tracer()
    run.install(tracer, api)
    try:
        _, outputs, _ = run.run_pass(api, wl, tracer)
    finally:
        tracer.uninstall()
    assert run.count_failures(wl, outputs) == 0
    return wl, tracer.calls


def test_tracer_counts_cached_map_calls_and_the_same_ring_work(tmp_path, monkeypatch):
    """The tracer wraps the cached constructors, so it counts calls, not builds."""
    run = _load_run()
    api = run.load_api()
    products = api.products
    cached = (products.power_map, products.product_map, products.sym_power_map)
    for fn in cached:
        fn.cache_clear()
    wl, calls = _traced_tiers_pass(run, api, tmp_path)
    chain_middles = sys.modules[type(wl).__module__]._chain_middles
    # one direct map plus three per chain check, and d/e - 1 iterated product steps
    power_calls = sum(1 + 3 * len(chain_middles(d, e)) for _, _, _, _, d, e in wl.items)
    product_calls = sum(d // e - 1 for _, _, _, _, d, e in wl.items)
    assert calls["products.power_map"] == power_calls
    assert calls["products.product_map"] == product_calls
    assert products.power_map.cache_info().currsize == len(wl.items) < power_calls

    for fn in cached:
        monkeypatch.setattr(products, fn.__name__, fn.__wrapped__)
    _, uncached = _traced_tiers_pass(run, api, tmp_path)
    for name in ("products.power_map", "products.product_map", "ring.mul", "modules.apply"):
        assert calls[name] == uncached[name] > 0, name


def test_one_tiers_item_reaches_every_layer_the_tiers_workload_names(tmp_path):
    """A Tiers.call item runs through the ring, apply, chart and chain layers.

    A fused fast path that skipped RingElement.__mul__ or GeneratorMap.apply
    would leave the tiers workload's per-layer metrics reading 0.
    """
    run = _load_run()
    api = run.load_api()
    wl = run.WORKLOADS["tiers"](1, True, tmp_path)
    # r = 4, l = 2, top pair (1, 1), d = 4 -> e = 1: Sym^4 of M(1, 1), three
    # product steps, a chart power and the chains through d1 = 1, 2, 4
    item = (4, 2, 1, 1, 4, 1)
    assert item in wl.items
    tracer = run.Tracer()
    run.install(tracer, api)
    try:
        out = tracer.item(0, wl.call, api, item)
    finally:
        tracer.uninstall()
    assert wl.check(item, out)
    for name in ("ring.mul", "modules.apply", "oracle.up_mul", "products.compatibility_check"):
        assert tracer.calls[name] > 0, name
