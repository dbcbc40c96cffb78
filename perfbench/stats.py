"""Statistics shared by perfbench/run.py, perfbench/compare.py and the tests.

Pure functions over lists of numbers and raw harness records; no I/O.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

# Layers whose per-call medians add up to one request, per workload. The
# serve layer's queue wait is a layer of its own; for the hybrid solve
# the runtime driver's own phase split is the ledger.
LEDGER_LAYERS = {
    "cold_protein_20k": [
        "serve.queue_s", "molecule.parse_s", "surface.field_s",
        "surface.marching_s", "surface.quadrature_s", "octree.build_s",
        "gb.plan_s", "gb.born_s", "gb.epol_s",
    ],
    "md_refit_2k": [
        "serve.queue_s", "molecule.parse_s", "octree.refit_s", "gb.born_s",
        "gb.epol_s",
    ],
    "hybrid_capsid_20k": [
        "runtime.surface_s", "runtime.tree_s", "runtime.born_s",
        "runtime.epol_s",
    ],
}
# ledger.closure_frac must fall in this band for the ledger to close; a
# traced run whose ledger does not close is not correct.
CLOSURE_TOLERANCE = (0.75, 1.25)


def ledger_closes(closure):
    lo, hi = CLOSURE_TOLERANCE
    return lo <= closure <= hi


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with >= TAIL_MIN_BEYOND of n samples
    beyond it, or None when even the median has too few."""
    best = None
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = q
    return best


def spread(values):
    """(q1, median, q3) as the acceptance rule computes them:
    statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_iqr(values):
    q1, med, q3 = spread(values)
    return (q3 - q1) / abs(med) if med else math.inf


def ledger_closure(workload, layer_medians, latency_p50):
    """(layer sum, closure fraction) of a workload's ledger."""
    total = sum(layer_medians[name] for name in LEDGER_LAYERS[workload])
    return total, total / latency_p50


def end_to_end(raw):
    """End-to-end metrics of one raw harness record: {name: value}.
    latency_p90_s only when the run has the samples to support it."""
    samples, value = raw["samples"], raw["value"]
    lat = samples["latency_s"]
    out = {
        "setup_s": statistics.median(samples["setup_s"]),
        "latency_p50_s": percentile(lat, 50.0),
        "throughput_rps": len(lat) / value["window_s"],
        "born_rel_err": statistics.median(c["born_rel_err"] for c in raw["checks"]),
        "peak_rss_mb": value["peak_rss_mb"],
    }
    if (tail_percentile(len(lat)) or 0) >= 90.0:
        out["latency_p90_s"] = percentile(lat, 90.0)
    return out


def per_layer(raw, latency_p50):
    """Per-layer metrics of one traced raw record: medians per call of
    every sampled layer, the record's scalar layer values, and the
    ledger closure against the untraced latency_p50 of the same run."""
    workload = raw["text"]["workload"]
    out = {}
    for name, values in raw["samples"].items():
        if "." in name and values:
            out[name] = statistics.median(values)
    for name, v in raw["value"].items():
        if name.split(".")[0] in {"gb", "parallel", "serve", "trace"}:
            out[name] = v
    checks = raw["checks"]
    out["check.epol_rel_err"] = max(c["rel_err"] for c in checks)
    total, closure = ledger_closure(workload, out, latency_p50)
    out["serve.overhead_s"] = latency_p50 - total
    out["ledger.closure_frac"] = closure
    return out


def failures(raw):
    """Requests counted as failed: non-ok statuses plus failed checks."""
    return int(raw["value"]["failed"]) + sum(1 for c in raw["checks"] if not c["ok"])


# --- comparing two sets of runs (choosing-metrics section 8) ---------------

IMPROVED, NO_WORSE, UNRESOLVED, REGRESSED = (
    "improved", "no worse", "unresolved", "regressed")
# A gain needs the change to win this share of the parent/change pairs.
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    """Verdict for one metric on one workload.

    parent, change: per-run values (paired by position: pair i is the
    i-th run of each side). better: "lower" or "higher". bound: the share
    of the parent's median by which the change may be worse.
    Returns (verdict, win_share)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = spread(parent)
    _, c_med, _ = spread(change)
    parent_iqr = p_q3 - p_q1
    worse_by = sign * (c_med - p_med)  # > 0: the change is worse
    if win_share >= WIN_SHARE and -worse_by > parent_iqr:
        return IMPROVED, win_share
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse_by > bound * abs(p_med):
        return REGRESSED, win_share
    if parent_iqr > bound * abs(p_med) and not all_better:
        return UNRESOLVED, win_share
    return NO_WORSE, win_share
