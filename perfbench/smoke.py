"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py [--full] [--seed N]

For every workload it makes one untraced run and two traced runs with one
seed (tiny inputs unless --full) and checks that:
  * each run exits 0 and reports correct outputs;
  * the untraced run reports exactly the end_to_end metrics of
    BENCHMARK.json and the traced runs exactly the per_layer metrics;
  * every count metric repeats exactly between the two traced runs;
  * the layer-isolation zeros hold;
  * strata reports are byte-identical across the three runs (by digest).
Exits 1 and lists the problems if any check fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import ISOLATION_ZEROS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int, full: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + ([] if full else ["--tiny"])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="smoke check of the benchmark")
    parser.add_argument("--full", action="store_true", help="full input sizes")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        rec0, plain = bench(workload, args.seed, 0, args.full)
        rec1, first = bench(workload, args.seed, 1, args.full)
        rec2, second = bench(workload, args.seed, 1, args.full)
        for label, res in (("untraced", plain), ("traced", first), ("traced again", second)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} {label}: {res['failed']} failed items")
        if set(plain["metrics"]) != end_to_end:
            problems.append(f"{workload}: end-to-end names differ: {sorted(set(plain['metrics']) ^ end_to_end)}")
        for res in (first, second):
            if set(res["metrics"]) != set(per_layer):
                problems.append(f"{workload}: per-layer names differ: "
                                f"{sorted(set(res['metrics']) ^ set(per_layer))}")
        for name, unit in per_layer.items():
            a, b = first["metrics"].get(name), second["metrics"].get(name)
            if unit == "count" and (a is None or b is None or a["value"] != b["value"]):
                problems.append(f"{workload}: count {name} does not repeat: {a} vs {b}")
        for name in ISOLATION_ZEROS[workload]:
            if first["metrics"][name]["value"] != 0:
                problems.append(f"{workload}: {name} is not 0")
        if workload == "strata" and len({rec0["report_digest"], rec1["report_digest"],
                                         rec2["report_digest"]}) != 1:
            problems.append("strata: reports differ between runs of one seed")
        print(f"{workload}: {plain['attempted']} items untraced, "
              f"{len(per_layer)} per-layer metrics traced twice", flush=True)
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
