"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads sweep,oracle,day,day-staged \
        --seeds 1-10 --trace 0 --out spread.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
for ``run_seconds`` from BENCHMARK.json. For each metric it prints the
median and the interquartile range (``statistics.quantiles(n=4)``) as a
share of the median, and marks an end-to-end metric whose spread is not
below a third of its bound. ``--out`` adds every run (with its wall time)
plus the summary to a JSON file, under the workload and ``--label``
(default ``trace0`` or ``trace1``), keeping what the file already holds.

``--compare A,B`` runs nothing: it reads two labelled sets from ``--out``
and prints, per workload and end-to-end metric, how far the median of B
lies from that of A as a share of A, marking a difference above the bound.

``BENCH_baseline.json`` was written by

    python3 perfbench/spread.py --workloads sweep,oracle,day,day-staged \
        --seeds 1-10 --trace 0 --out perfbench/BENCH_baseline.json
    python3 perfbench/spread.py --workloads sweep,oracle,day,day-staged \
        --seeds 1-3 --trace 1 --out perfbench/BENCH_baseline.json
    # later, for a second set of the same code
    python3 perfbench/spread.py --workloads sweep,oracle,day,day-staged \
        --seeds 11-20 --trace 0 --label trace0-second --out perfbench/BENCH_baseline.json
    python3 perfbench/spread.py --compare trace0,trace0-second \
        --out perfbench/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "env": env, "result": result}


def summarize(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        entry = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["steady"] = spread < bounds[name] / 3
        out[name] = entry
    return out


def compare(report: dict, first: str, second: str, bounds: dict) -> int:
    """Print how far the medians of two labelled sets lie apart; 1 if any exceeds its bound."""
    apart = 0
    for workload, sets in report.items():
        if first not in sets or second not in sets:
            continue
        print(workload, flush=True)
        a, b = sets[first]["summary"], sets[second]["summary"]
        for name, bound in bounds.items():
            diff = abs(b[name]["median"] - a[name]["median"]) / a[name]["median"]
            flag = "  APART" if diff > bound else ""
            apart += bool(flag)
            print(f"  {name:34s} {a[name]['median']:.6g} -> {b[name]['median']:.6g}"
                  f"  difference {diff:.4f} of bound {bound}{flag}", flush=True)
    return 1 if apart else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(args.out) if args.out else None
    report = json.loads(out.read_text(encoding="utf-8")) if out and out.exists() else {}
    if args.compare:
        return compare(report, *args.compare.split(","), bounds)
    label = args.label or f"trace{args.trace}"
    for workload in filter(None, args.workloads.split(",")):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(one_run(workload, seed, spec["run_seconds"], args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={runs[-1]['wall_s']:.1f}s", flush=True)
        summary = summarize(runs, bounds)
        report.setdefault(workload, {})[label] = {"runs": runs, "summary": summary}
        for name, e in summary.items():
            flag = "" if e.get("steady", True) else "  NOT STEADY"
            print(f"  {name:34s} median {e['median']:.6g}  spread {e['spread']:.4f}{flag}", flush=True)
    if out:
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
