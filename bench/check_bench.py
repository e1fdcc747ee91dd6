#!/usr/bin/env python3
"""Bench-regression gate: compare freshly recorded bench artifacts
against the committed perf-trajectory baselines.

The repo commits its measured trajectory (BENCH_schedule.json from
bench_schedule, BENCH_sweep.jsonl from shc_sweep).  CI re-records both
on every push and this script fails the job when the trajectory would
silently degrade:

  * a *gated* row is missing from the fresh recording;
  * a gated row's exact counters (calls / rounds / groups / exchanges /
    minimum_time...) drift at all — those are deterministic facts about
    the certified schedules, so any drift is a correctness change that
    must be accompanied by a baseline update in the same commit;
  * a gated row's wall time regresses more than the tolerance (default
    25 %) relative to the committed baseline.  Rows faster than the
    noise floor (0.5 s) are exempt from the timing check (their
    counters are still gated); improvements always pass.

Beyond the per-row checks, two machine-independent gates:

  * the BM_SymbolicCertifyThreads/{1,2,4,8} rows must report identical
    group/frontier/claim counters — the engine's reports are bit-for-bit
    thread-invariant, so any divergence is a determinism bug, not noise.
    Their wall times are never gated (they measure the host's cores);
  * the designed-63 / SymbolicCertify-48 *time ratio* must not regress
    beyond its committed ratio.  Both rows slow down together on a slower
    runner, so the ratio stays binding even when SHC_BENCH_TOLERANCE is
    widened for absolute times (CI runs with 1.5);
  * the ServeEngine rows (BM_ServeThroughput/64, mixed-load /47) gate
    the cache/admission accounting exactly (queries, hits, refusals);
    their wall times are thread-scheduler-dependent and stay ungated,
    with the mixed row bound to BM_SymbolicCertifyThreads/1 by ratio.

Overrides for noisy runners (documented in README.md):

  SHC_BENCH_TOLERANCE=0.60        widen the allowed real-time regression
  SHC_BENCH_RATIO_TOLERANCE=0.75  widen the ratio gate (default 0.5)
  SHC_BENCH_SKIP=1                skip the gate entirely (counters included)

Both are also available as --tolerance / --skip.  Only the Python
standard library is used.

Usage:
  python3 bench/check_bench.py \
      [--fresh-schedule BENCH_schedule.fresh.json] \
      [--fresh-sweep BENCH_sweep.fresh.jsonl] \
      [--baseline-schedule BENCH_schedule.json] \
      [--baseline-sweep BENCH_sweep.jsonl] \
      [--tolerance 0.25] [--skip]
"""

import argparse
import json
import os
import sys

# Gated bench_schedule rows (benchmark name prefix -> exact counters).
# BM_StreamingCertify/30 is deliberately ungated: it needs a ~26 GB
# big-memory box and CI skips recording it.
GATED_SCHEDULE = {
    "BM_StreamingCertify/20": ["calls", "minimum_time"],
    "BM_StreamingCertify/24": ["calls", "minimum_time"],
    "BM_SymbolicCertify/40": ["calls", "groups", "minimum_time",
                              "rounds_checked"],
    "BM_SymbolicCertify/48": ["calls", "groups", "minimum_time",
                              "rounds_checked"],
    "BM_SymbolicCertify/63": ["calls", "groups", "minimum_time",
                              "rounds_checked"],
    "BM_SymbolicCertifyDesigned/63": ["calls", "groups", "minimum_time",
                                      "rounds_checked"],
    # Designed k = 2 below the bitmap limit: the sampled replay's count
    # is gated alongside the groups (dormant until a baseline has it).
    "BM_SymbolicCertifyDesigned/k2/30": ["calls", "groups", "sampled_calls",
                                         "rounds_checked", "minimum_time"],
    "BM_SymbolicGossip/26": ["exchanges", "groups", "rounds_checked",
                             "union_cache_hits", "union_cache_misses"],
    "BM_SymbolicGossip/33": ["exchanges", "groups", "rounds_checked",
                             "union_cache_hits", "union_cache_misses"],
    "BM_SymbolicGossip/40": ["exchanges", "groups", "rounds_checked",
                             "union_cache_hits", "union_cache_misses"],
    "BM_SymbolicCertifyThreads/1": ["groups", "peak_frontier_subcubes",
                                    "occupancy_claims", "rounds_checked",
                                    "minimum_time"],
    "BM_SymbolicCertifyThreads/2": ["groups", "peak_frontier_subcubes",
                                    "occupancy_claims", "rounds_checked",
                                    "minimum_time"],
    "BM_SymbolicCertifyThreads/4": ["groups", "peak_frontier_subcubes",
                                    "occupancy_claims", "rounds_checked",
                                    "minimum_time"],
    "BM_SymbolicCertifyThreads/8": ["groups", "peak_frontier_subcubes",
                                    "occupancy_claims", "rounds_checked",
                                    "minimum_time"],
    # The ServeEngine rows: cache accounting is deterministic (one cold
    # run per distinct key, everything else hits), so the counts are
    # exact facts; p95_ms / qps are measurements, never gated here.
    "BM_ServeThroughput/64": ["queries", "ok", "cache_hits", "distinct_keys"],
    "BM_ServeThroughputMixed/47": ["small_queries", "heavy_ok", "refused"],
}

# Rows whose wall time is a function of the host's core count (or, for
# the serve rows, of thread-scheduler timing under 64 concurrent
# clients): counters stay gated, the absolute time never is.  The
# mixed-load serve row is covered machine-independently by a ratio gate
# against the designed-47 single-thread row instead.
TIME_UNGATED = {f"BM_SymbolicCertifyThreads/{t}" for t in (1, 2, 4, 8)} | {
    "BM_ServeThroughput/64",
    "BM_ServeThroughputMixed/47",
}

# Thread-count invariance: these fresh rows must agree on these counters
# with each other (not merely with the baseline) — the symbolic reports
# are bit-for-bit identical at every thread count by contract.
THREAD_INVARIANT_ROWS = [f"BM_SymbolicCertifyThreads/{t}" for t in (1, 2, 4, 8)]
# Deliberately absent: reduce_tree_tasks — how many subtrees were farmed
# to the pool is a function of the thread count by design; it is
# telemetry, never part of the determinism contract.
THREAD_INVARIANT_COUNTERS = ["groups", "peak_frontier_subcubes",
                             "occupancy_claims", "rounds_checked"]

# Machine-independent time gates: (numerator row, denominator row).  The
# committed ratio is a property of the engine, not the runner, so this
# stays binding under a widened absolute tolerance.
RATIO_GATES = [
    ("BM_SymbolicCertifyDesigned/63", "BM_SymbolicCertify/48"),
    # Mixed serve load vs the same designed-47 certification run bare:
    # the ratio is the service overhead (admission, cache, 64 small
    # tenants), which must not balloon even on a slower runner.
    ("BM_ServeThroughputMixed/47", "BM_SymbolicCertifyThreads/1"),
]

# Gated shc_sweep rows: identity -> exact counters.  Grid rows are keyed
# (engine, n, k, model); every committed row of these engines is gated.
SWEEP_COUNTERS = {
    "streaming": ["rounds", "calls", "minimum_time", "ok"],
    "symbolic": ["rounds", "calls", "groups", "minimum_time", "ok",
                 "rounds_checked", "union_cache_hits", "union_cache_misses"],
    "symbolic-gossip": ["rounds", "exchanges", "groups", "complete", "ok",
                        "rounds_checked", "union_cache_hits",
                        "union_cache_misses"],
}

NOISE_FLOOR_SECONDS = 0.5


def sweep_identity(row):
    return (row.get("engine", "streaming"), row.get("n"), row.get("k"),
            row.get("model", ""))


def load_schedule(path):
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        # Strip google-benchmark decorations: ".../iterations:1" etc.
        base = name.split("/iterations:")[0]
        rows[base] = bench
    return rows


def load_sweep(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            rows[sweep_identity(row)] = row
    return rows


def check_counters(what, gate_keys, fresh, baseline, failures):
    for key in gate_keys:
        if key not in baseline:
            continue  # baseline predates the counter; nothing to gate
        if key not in fresh:
            failures.append(f"{what}: counter '{key}' missing from the "
                            "fresh recording")
            continue
        fv, bv = fresh[key], baseline[key]
        if fv != bv:
            failures.append(
                f"{what}: counter '{key}' drifted (baseline {bv!r}, "
                f"fresh {fv!r}) — a deterministic fact changed; update the "
                "committed baseline in the same commit if intentional")


def check_time(what, fresh_secs, base_secs, tolerance, failures):
    if base_secs is None or fresh_secs is None:
        return
    if base_secs < NOISE_FLOOR_SECONDS:
        return
    if fresh_secs > base_secs * (1.0 + tolerance):
        failures.append(
            f"{what}: real time regressed {fresh_secs:.2f}s vs baseline "
            f"{base_secs:.2f}s (> {tolerance:.0%} tolerance; raise "
            "SHC_BENCH_TOLERANCE for a known-noisy runner, or fix the "
            "regression)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh-schedule", default="BENCH_schedule.fresh.json")
    ap.add_argument("--fresh-sweep", default="BENCH_sweep.fresh.jsonl")
    ap.add_argument("--baseline-schedule", default="BENCH_schedule.json")
    ap.add_argument("--baseline-sweep", default="BENCH_sweep.jsonl")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("SHC_BENCH_TOLERANCE", "0.25")))
    ap.add_argument("--ratio-tolerance", type=float,
                    default=float(os.environ.get("SHC_BENCH_RATIO_TOLERANCE",
                                                 "0.5")))
    ap.add_argument("--skip", action="store_true",
                    default=os.environ.get("SHC_BENCH_SKIP", "") == "1")
    args = ap.parse_args(argv)

    if args.skip:
        print("check_bench: SKIPPED (SHC_BENCH_SKIP/--skip set)")
        return 0

    failures = []

    try:
        fresh_sched = load_schedule(args.fresh_schedule)
        base_sched = load_schedule(args.baseline_schedule)
    except OSError as e:
        print(f"check_bench: cannot read schedule artifact: {e}",
              file=sys.stderr)
        return 2

    for name, counters in GATED_SCHEDULE.items():
        base = base_sched.get(name)
        if base is None:
            continue  # the baseline does not carry this row yet
        fresh = fresh_sched.get(name)
        if fresh is None:
            failures.append(f"schedule row '{name}': gated row missing from "
                            "the fresh recording")
            continue
        check_counters(f"schedule row '{name}'", counters, fresh, base,
                       failures)
        if name not in TIME_UNGATED:
            check_time(f"schedule row '{name}'", fresh.get("real_time"),
                       base.get("real_time"), args.tolerance, failures)

    # Thread-count invariance across the fresh scaling rows.
    present = [(n, fresh_sched[n]) for n in THREAD_INVARIANT_ROWS
               if n in fresh_sched]
    if len(present) >= 2:
        ref_name, ref = present[0]
        for name, row in present[1:]:
            for key in THREAD_INVARIANT_COUNTERS:
                if key in ref and key in row and row[key] != ref[key]:
                    failures.append(
                        f"thread invariance: '{name}' counter '{key}' "
                        f"({row[key]!r}) differs from '{ref_name}' "
                        f"({ref[key]!r}) — symbolic reports must be "
                        "bit-for-bit identical at every thread count")

    # Machine-independent ratio gates.
    for num_name, den_name in RATIO_GATES:
        rows = [base_sched.get(num_name), base_sched.get(den_name),
                fresh_sched.get(num_name), fresh_sched.get(den_name)]
        if any(r is None for r in rows):
            continue  # absolute gates already flag missing rows
        times = [r.get("real_time") for r in rows]
        if any(t is None for t in times):
            continue
        bn, bd, fn, fd = times
        if bd < NOISE_FLOOR_SECONDS or fd < NOISE_FLOOR_SECONDS:
            continue
        base_ratio, fresh_ratio = bn / bd, fn / fd
        if fresh_ratio > base_ratio * (1.0 + args.ratio_tolerance):
            failures.append(
                f"ratio gate '{num_name}' / '{den_name}': {fresh_ratio:.2f} "
                f"vs committed {base_ratio:.2f} (> {args.ratio_tolerance:.0%} "
                "tolerance) — this gate is machine-independent; the "
                "numerator's engine got relatively slower")

    try:
        fresh_sweep = load_sweep(args.fresh_sweep)
        base_sweep = load_sweep(args.baseline_sweep)
    except OSError as e:
        print(f"check_bench: cannot read sweep artifact: {e}", file=sys.stderr)
        return 2

    for identity, base in sorted(base_sweep.items(), key=str):
        engine = identity[0]
        counters = SWEEP_COUNTERS.get(engine)
        if counters is None:
            continue
        what = (f"sweep row engine={engine} n={identity[1]} k={identity[2]}"
                + (f" model={identity[3]}" if identity[3] else ""))
        fresh = fresh_sweep.get(identity)
        if fresh is None:
            failures.append(f"{what}: gated row missing from the fresh sweep")
            continue
        check_counters(what, counters, fresh, base, failures)
        check_time(what, fresh.get("seconds"), base.get("seconds"),
                   args.tolerance, failures)

    if failures:
        print(f"check_bench: {len(failures)} failure(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    gated = len([n for n in GATED_SCHEDULE if n in base_sched]) + len(
        [i for i in base_sweep if i[0] in SWEEP_COUNTERS])
    print(f"check_bench: OK ({gated} gated rows, tolerance "
          f"{args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
