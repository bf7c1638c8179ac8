"""spinalg benchmark: one closed-loop caller, three workloads, optional tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tiers --seed 1 --seconds 35 --trace 0

The workloads are described in workloads.py.  One caller makes each call
into spinalg's public functions only after the previous one returned; no
threads, no worker processes.

--trace 0 measures end-to-end metrics: whole passes over the items until
another pass would overrun --seconds (at least MIN_PASSES).  Every output
is checked after its pass, outside the timed region.

Every time is reported at a fixed machine speed.  A shared host (measured
on a 2-CPU x86-64 VM) slowed a single-threaded process by up to 1.9x for
tens of seconds at a time, longer than one run, and no estimator over one
run's own timings removes that.  So a fixed pure-Python reference loop of
this file (reference(), no spinalg code) is timed between the items, about
every REF_GAP_S seconds of item time, and each item's time is scaled by
REF_NOMINAL_S / (the mean time of the reference runs next to it).  The program's own speed changes the item
times but not the reference's.  The run record has the unscaled pass
seconds next to the scaled ones.

--trace 1 runs one untraced pass and then one pass with the per-layer
wrappers of tracing.py installed, whatever --seconds says, so that every
count repeats exactly between two traced runs of one seed.

Set-up (importing spinalg from ./src and generating the inputs) is timed
in SETUP_CHILDREN fresh interpreters and in the measuring one, each scaled
by reference loops run just before and after it, and reported as the
median.  The strata documents are written to disk after the timed set-up:
creating 200 files is neither spinalg's work nor CPU-bound, and on a shared
disk its time drifted from 10 to 60 ms between runs.

The last stdout line is the result object; the line before it is the run
record (seed, item counts, Python version, CPU count, git sha), which is
also written to .bench_out/ next to the trace.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 8
MIN_PASSES = 3
# The reference loop takes about REF_NOMINAL_S on a quiet 2-CPU x86-64 host
# with CPython 3.11; reported times are at that speed.
REF_NOMINAL_S = 0.0005
REF_GAP_S = 0.02
REF_NEAR = 2
SETUP_REFS = 40

# counts that must be 0: each workload bypasses the layers it claims to bypass
ISOLATION_ZEROS = {
    "tiers": ("dualgraph.enumerate.calls", "linalg.row_reduce.calls"),
    "cokernel": ("dualgraph.enumerate.calls",),
    "strata": ("ring.mul.calls", "linalg.row_reduce.calls"),
}


def load_api() -> types.SimpleNamespace:
    """Import spinalg from ./src; refuse any other copy."""
    mods = {name.lstrip("_"): importlib.import_module(f"spinalg.{name}") for name in (
        "ring", "field", "modules", "products", "oracle", "_linalg",
        "resolution", "dualgraph", "twists", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"spinalg was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


class _Poly:
    """Sparse polynomial over F_10007 with tuple exponents (reference work only)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict = {}
        for (a, b), x in self.terms.items():
            for (c, d), y in other.terms.items():
                key = ((a + c) % 11, (b + d) % 7)
                out[key] = (out.get(key, 0) + x * y) % 10007
        return _Poly({k: v for k, v in out.items() if v})


_REF_BASE = _Poly({(i % 11, i % 7): i * 31 % 10007 + 1 for i in range(12)})


def reference() -> float:
    """Seconds of one fixed unit of dict, integer and string work, GC paused.

    Pausing the collector keeps the program's heap out of the reference's
    time; the loop makes no reference cycles, so nothing piles up.
    """
    gc.disable()
    t0 = perf_counter()
    acc = _REF_BASE
    for _ in range(4):
        acc = acc * _REF_BASE
    ", ".join(f"{a}:{b}={v}" for (a, b), v in sorted(acc.terms.items()))
    seconds = perf_counter() - t0
    gc.enable()
    return seconds


def speed_factor(refs: list[float]) -> float:
    """How much slower than nominal the machine ran while refs were timed."""
    return statistics.fmean(refs) / REF_NOMINAL_S


def git_sha() -> str | None:
    """HEAD of ROOT/.git read from disk (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_in_child(args) -> float:
    """Scaled seconds of one set-up in a fresh interpreter (this script with --setup-only)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(api, wl, tracer: Tracer | None = None):
    """One pass over the items: (scaled per-item seconds, outputs, unscaled pass seconds).

    A reference loop runs before the first item, after the last, and
    whenever REF_GAP_S of item time has passed.  Each item's time is divided
    by the speed factor of the REF_NEAR reference runs on either side of it,
    which follows the machine's speed closer than one factor per pass.
    """
    latencies, outputs, refs = [], [], []
    since_ref = REF_GAP_S
    for idx, item in enumerate(wl.items):
        if since_ref >= REF_GAP_S:
            refs.append((idx, reference()))
            since_ref = 0.0
        t0 = perf_counter()
        try:
            out = wl.call(api, item) if tracer is None else tracer.item(idx, wl.call, api, item)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out = exc
        latencies.append(perf_counter() - t0)
        since_ref += latencies[-1]
        outputs.append(out)
    refs.append((len(latencies), reference()))
    positions = [pos for pos, _ in refs]
    scaled = []
    for idx, seconds in enumerate(latencies):
        after = bisect.bisect_right(positions, idx)  # refs[:after] ran before this item
        near = [ref for _, ref in refs[max(0, after - REF_NEAR):after + REF_NEAR]]
        scaled.append(seconds / speed_factor(near))
    return scaled, outputs, sum(latencies)


def count_failures(wl, outputs) -> int:
    """Check every output; name each failed item and what it returned on stderr."""
    failed = 0
    for item, out in zip(wl.items, outputs):
        if isinstance(out, Exception) or not wl.check(item, out):
            failed += 1
            print(f"perfbench: {wl.name} item {item!r} failed: {out!r:.300}", file=sys.stderr)
    return failed


def measure(api, wl, seconds: float) -> tuple[dict, int, int, dict]:
    """End-to-end metrics from whole passes, at least MIN_PASSES of them.

    wall_s is the median scaled pass time and items_per_s its rate; each
    item's latency is its median scaled time over the passes.
    """
    passes, per_pass, raw_passes = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        lat, outputs, raw = run_pass(api, wl)
        passes.append(sum(lat))
        per_pass.append(lat)
        raw_passes.append(raw)
        attempted += len(outputs)
        failed += count_failures(wl, outputs)
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    wall = statistics.median(passes)
    item = [statistics.median(times) for times in zip(*per_pass)]
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (len(item) / wall, "1/s"),
        "call_p50_ms": (statistics.median(item) * 1e3, "ms"),
        "call_p95_ms": (statistics.quantiles(item, n=20)[18] * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed, {
        "passes": len(passes), "pass_s": passes, "raw_pass_s": raw_passes, "item_s": per_pass}


def measure_traced(api, wl, trace_path: Path) -> tuple[dict, int, int, dict]:
    base_lat, base_out, _ = run_pass(api, wl)
    base_wall = sum(base_lat)
    tracer = Tracer()
    install(tracer, api)
    try:
        lat, outputs, _ = run_pass(api, wl, tracer)
        wall = sum(lat)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    failed = count_failures(wl, base_out) + count_failures(wl, outputs)
    if wl.name == "strata":
        assignments, report_bytes = wl.totals(outputs)
        candidates = wl.candidates()
    else:
        assignments = report_bytes = candidates = 0
    metrics = layer_metrics(tracer, candidates, assignments, report_bytes, wall / base_wall)
    return metrics, len(base_out) + len(outputs), failed, {
        "pass_s": [base_wall, wall], "spans": len(tracer.spans), "trace_file": trace_path.name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    if not (SRC / "spinalg" / "__init__.py").is_file():
        print(f"perfbench: error: no spinalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        # set-up in fresh interpreters as a user pays it; the last one is this run's
        children = 0 if args.trace or args.setup_only else SETUP_CHILDREN
        setup_times = [setup_in_child(args) for _ in range(children)]
        for _ in range(SETUP_REFS // 4):  # let the interpreter specialise the loop
            reference()
        refs = [reference() for _ in range(SETUP_REFS)]
        t0 = perf_counter()
        api = load_api()
        wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        elapsed = perf_counter() - t0
        refs += [reference() for _ in range(SETUP_REFS)]
        setup_times.append(elapsed / speed_factor(refs))
        if args.setup_only:
            print(setup_times[-1])
            return 0
        wl.write_inputs()
        if args.trace:
            metrics, attempted, failed, extra = measure_traced(api, wl, OUT / f"trace-{tag}.jsonl")
            zeros = [name for name in ISOLATION_ZEROS[args.workload] if metrics[name][0] != 0]
            if zeros:
                print(f"perfbench: layer isolation broken: {zeros} are not 0", file=sys.stderr)
        else:
            metrics, attempted, failed, extra = measure(api, wl, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            zeros = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, **wl.facts(), **extra,
        "setup_s": setup_times, "attempted": attempted, "failed": failed,
        "python": platform.python_version(), "cpu_count": os.cpu_count(), "git_sha": git_sha(),
    }
    if args.workload == "strata":
        record["report_digest"] = wl.digest()
    result = {
        "correct": failed == 0 and not zeros,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    record.pop("item_s", None)  # per-item times per pass go to the file only
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
