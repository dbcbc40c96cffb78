#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Each run is `python3 perfbench/run.py` (so each writes its own run record
under .bench_build/records/). Prints, per workload and end-to-end metric,
the median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json, the figure the acceptance rule gates.
Exits 1 if any run failed or any spread exceeds its bound.
"""

import argparse
import json
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(values[metrics[0]['name']])} runs")
        print(f"  {'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = stats.spread(vs)
            rel = stats.relative_iqr(vs)
            bound = m.get("bound")
            flag = ""
            if bound is not None and rel > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and rel > bound / 3:
                flag = "  over bound/3"
            print(f"  {m['name']:28s} {med:11.5g} {q1:11.5g} {q3:11.5g} {rel:7.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
