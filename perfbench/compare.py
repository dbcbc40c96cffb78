#!/usr/bin/env python3
"""Compares two sets of benchmark run records: parent against change.

    python3 perfbench/compare.py <parent-records-dir> <change-records-dir>

Reads the untraced, correct run records (written by perfbench/run.py
under .bench_build/records/) of both sides and prints one row per
workload and end-to-end metric: each side's median and quartiles, the
share of parent/change pairs the change wins (pairs match by seed, in run
order within a seed) and a verdict:

  improved    the change wins >= 90% of the pairs and the medians differ
              by more than the parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound from BENCHMARK.json;
  unresolved  the parent's quartile spread is wider than the bound and not
              every change run beats every parent run;
  no worse    otherwise.

Refuses (exit 2) records from a non-Release build, and sets whose host or
configuration fingerprint differs. Exits 1 when any row regressed.
"""

import argparse
import collections
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Refused(Exception):
    pass


def fingerprint(record):
    """What must match for two runs to be comparable: everything about the
    host, build and configuration, but not the source revision or seed."""
    p = record["provenance"]
    return json.dumps({
        "workload": record["workload"],
        "run_seconds": record["run_seconds"],
        "build_flags": p["build_flags"],
        "nproc": p["nproc"],
        "cpu_model": p["cpu_model"],
        "simd": p["simd"],
        "config": p["config"],
    }, sort_keys=True)


def load(directory):
    """Untraced correct records of a directory, grouped by workload, in
    run order."""
    by_workload = collections.defaultdict(list)
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != 0 or not record["correct"]:
            continue
        flags = record["provenance"]["build_flags"]
        if not flags.startswith("Release"):
            raise Refused(f"{path}: not a Release build ({flags})")
        by_workload[record["workload"]].append(record)
    return by_workload


def pair_up(parent, change):
    """(parent value index, change value index) pairs: same seed, in order."""
    def by_seed(records):
        seeds = collections.defaultdict(list)
        for i, r in enumerate(records):
            seeds[r["seed"]].append(i)
        return seeds
    ps, cs = by_seed(parent), by_seed(change)
    pairs = []
    for seed in sorted(set(ps) & set(cs)):
        pairs.extend(zip(ps[seed], cs[seed]))
    return pairs


def compare(parent_sets, change_sets, spec):
    """Rows (workload, metric, parent values, change values, verdict,
    win share) for every workload both sides ran."""
    rows = []
    for workload in sorted(set(parent_sets) & set(change_sets)):
        parent, change = parent_sets[workload], change_sets[workload]
        prints = {fingerprint(r) for r in parent + change}
        if len(prints) != 1:
            raise Refused(f"{workload}: runs differ in host or configuration: "
                          + " | ".join(sorted(prints)))
        pairs = pair_up(parent, change)
        if len(pairs) < 2:
            raise Refused(f"{workload}: fewer than two parent/change pairs")
        for m in spec["end_to_end"]:
            pv = [parent[i]["end_to_end"][m["name"]] for i, _ in pairs]
            cv = [change[j]["end_to_end"][m["name"]] for _, j in pairs]
            v, share = stats.verdict(pv, cv, m["better"], m["bound"])
            rows.append((workload, m, pv, cv, v, share))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load(args.parent), load(args.change), spec)
    except Refused as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    if not rows:
        print("compare: no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':15s} {'unit':5s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>5s}  verdict")
    for workload, m, pv, cv, v, share in rows:
        def cell(vs):
            q1, med, q3 = stats.spread(vs)
            return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
        print(f"{workload:18s} {m['name']:15s} {m['unit']:5s} {cell(pv):>32s} "
              f"{cell(cv):>32s} {share:5.0%}  {v}  (n={len(pv)}, bound {m['bound']:.0%})")
    return 1 if any(r[4] == stats.REGRESSED for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
