#!/usr/bin/env python3
"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt,
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs it,
checks its outputs, writes a run record under .bench_build/records/ (and,
with --trace 1, a Chrome/Perfetto trace under .bench_build/traces/), prints
every metric by name and unit to stderr, and prints the result as one JSON
object on the last line of stdout. Exits 1 when an output check fails (or,
traced, when the ledger does not close) and 2 when the benchmark cannot
run.

Workloads in HELD are not in BENCHMARK.json but can still be run by name:
they show the program defect that keeps them out.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The harness's deadline, counted from the end of the build; the build's
# own (all steps together) keeps a first run with a cold build under 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# Workloads the harness runs that BENCHMARK.json leaves out, and why.
HELD = {
    "md_refit_2k": "refit E_pol misses compute_gb_energy_naive on the "
                   "conformation by more than the 5% check on some seeds",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then brings the harness up to date."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise RuntimeError(f"no {needed} at the checkout root: nothing to build")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    return out / "perfbench"


def git_sha():
    """HEAD of the repository root when it is a git work tree, else "none".
    Read on every run: the build's own stamp is fixed at configure time."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            pathlib.Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_harness(binary, args, raw_path, trace_path, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return json.loads(raw_path.read_text())


def summarize(spec, raw, args, revision):
    """(run record, result line object) of one raw harness record.
    revision: {"git_sha", "source_digest"} of the sources. Raises KeyError
    naming a metric the harness did not measure."""
    e2e = stats.end_to_end(raw)
    failed = stats.failures(raw)
    attempted = int(raw["value"]["attempted"])
    tail_q = stats.tail_percentile(len(raw["samples"]["latency_s"]))
    correct = failed == 0 and len(raw["checks"]) > 0
    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = stats.per_layer(raw, e2e["latency_p50_s"]) if args.trace else e2e
    closes = not args.trace or stats.ledger_closes(values["ledger.closure_frac"])
    correct = correct and closes
    missing = [m["name"] for m in metric_spec if m["name"] not in values]
    if missing:
        raise KeyError(", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "provenance": {
            **revision,
            "build_flags": raw["text"]["build_flags"],
            "nproc": raw["text"]["nproc"],
            "cpu_model": raw["text"]["cpu_model"],
            "simd": raw["text"]["simd"],
            "config": {k: raw["text"][k] for k in (
                "atoms", "workers", "ranks", "threads_per_rank",
                "cache_capacity", "outstanding", "service_mode")
                if k in raw["text"]},
        },
        "correct": correct,
        "ledger_closes": closes,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / max(1, attempted),
        "latency_samples": len(raw["samples"]["latency_s"]),
        "tail_percentile_supported": tail_q,
        "setup_samples": len(raw["samples"]["setup_s"]),
        "checks": raw["checks"],
        "check_tolerance": raw["value"]["check_tolerance"],
        "end_to_end": e2e,
        "per_layer": values if args.trace else None,
        "raw": raw,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]} | set(HELD):
            raise RuntimeError(f"unknown workload {args.workload}")
        binary = build()
        started = time.monotonic()
        out = build_dir().parent
        stamp = time.strftime("%Y%m%dT%H%M%S")
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        for sub in ("raw", "records", "traces"):
            (out / sub).mkdir(parents=True, exist_ok=True)
        raw_path = out / "raw" / f"{name}.json"
        trace_path = out / "traces" / f"{name}.trace.json"
        raw = run_harness(binary, args, raw_path, trace_path,
                          started + RUN_TIMEOUT_S)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: cannot run: {e}")
        return 2

    revision = {"git_sha": git_sha(), "source_digest": source_digest()}
    try:
        record, result = summarize(spec, raw, args, revision)
    except KeyError as e:
        log(f"perfbench: harness did not measure {e}")
        return 2
    record["trace_file"] = str(trace_path.relative_to(ROOT)) if args.trace else None
    (out / "records" / f"{name}.json").write_text(json.dumps(record, indent=1))

    shown = dict(record["end_to_end"], **(record["per_layer"] or {}))
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        log(f"  {args.workload:18s} {m['name']:28s} {shown[m['name']]:.6g} {m['unit']}")
    tail = record["tail_percentile_supported"]
    tail = f"p{tail:g}" if tail else "none (too few samples)"
    log(f"  {args.workload:18s} samples: {record['latency_samples']} requests, "
        f"{record['setup_samples']} set-ups, {len(raw['checks'])} checks; "
        f"highest supported tail percentile: {tail}")
    if args.workload in HELD:
        log(f"perfbench: {args.workload} is held out of BENCHMARK.json: "
            f"{HELD[args.workload]}")
    if not record["ledger_closes"]:
        lo, hi = stats.CLOSURE_TOLERANCE
        log(f"perfbench: ledger does not close: "
            f"{shown['ledger.closure_frac']:.3f} outside [{lo}, {hi}]")
    bad = [c for c in raw["checks"] if not c["ok"]]
    if result["failed"] or not raw["checks"]:
        log(f"perfbench: output check failed: {result['failed']} failed, {bad}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
