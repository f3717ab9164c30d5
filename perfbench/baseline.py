"""Run the benchmark over several seeds, print every metric and record a baseline.

    python3 perfbench/baseline.py                     # every gated workload
    python3 perfbench/baseline.py --workloads potential series verify
    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload runs once per seed 1..10, for BENCHMARK.json's run_seconds.

Workloads run round-robin within each seed, so drift of the machine spreads
over all of them.  For each end-to-end metric the table shows the median of
the per-run medians, its quartiles, the spread (q3 - q1) / median, the bound
from BENCHMARK.json and the sample count; the raw seconds behind `wall_ref`
and `cpu_ref` follow, without a bound.  With --out it also makes one traced
run per workload and writes machine, settings, every value and the
prediction table to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PREDICTIONS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return {"summary": json.loads(lines[-2])["summary"], "result": json.loads(lines[-1])}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in SEEDS:
        for w in args.workloads:
            runs[w].append(run_once(w, seed, seconds, 0))
            print(f"seed {seed} {w}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[w][-1]["result"]["metrics"].items()
            ), file=sys.stderr, flush=True)

    end_to_end: dict[str, dict] = {}
    print(f"{'workload':10} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'runs':>5} {'samples':>8}  unit")
    for w, rs in runs.items():
        end_to_end[w] = {}
        for name in rs[0]["summary"]:
            bound = bounds.get(name)
            values = [r["summary"][name]["median"] for r in rs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            samples = sum(r["summary"][name]["n"] for r in rs)
            unit = rs[0]["summary"][name]["unit"]
            end_to_end[w][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                   "bound": bound, "runs": len(values), "samples": samples,
                                   "unit": unit, "values": values}
            print(f"{w:10} {name:12} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {'-' if bound is None else f'{bound:6.2f}':>6} "
                  f"{len(values):5d} {samples:8d}  {unit}")

    if args.out:
        per_layer = {}
        for w in args.workloads:
            traced = run_once(w, SEEDS[0], seconds, 1)
            per_layer[w] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        record = {
            "machine": {"python": platform.python_version(), "cpu_model": cpu_model(),
                        "nproc": os.cpu_count()},
            "commit": commit.stdout.strip() or None,
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "workloads": {
                w: {"argv": WORKLOADS[w].argv(WORKLOADS[w].base_degree),
                    "degree_band": [WORKLOADS[w].base_degree - WORKLOADS[w].band,
                                    WORKLOADS[w].base_degree + WORKLOADS[w].band],
                    "why": WORKLOADS[w].why}
                for w in args.workloads
            },
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "predictions": PREDICTIONS,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
