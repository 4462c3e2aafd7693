#!/usr/bin/env python3
"""Regression guard over the checked-in benchmark snapshot.

Re-runs the guarded perf_toolkit benchmarks and fails (exit 1) when any of
them errors (SkipWithError), or regresses by more than --factor against the
recorded baseline in BENCH_perf_toolkit.json. Registered as the
`bench_guard` ctest in optimised, unsanitized builds only — debug and
sanitizer timings would trip the guard on every run, and the recording side
(bench/record_bench.cmake) refuses debug numbers for the same reason.

Throughput benchmarks (items_per_second in both runs) are compared on
throughput; everything else on real_time. The factor is deliberately loose
(default 2x): the snapshot is recorded on a small, noisy container, and the
guard exists to catch engine-level regressions (an accidental fallback to a
slower path, a lost cache), not single-digit-percent drift.

Usage:
  bench_guard.py --binary <perf_toolkit> --baseline <BENCH_perf_toolkit.json>
                 [--filter REGEX] [--factor 2.0] [--min-time 0.25]
                 [--obs-filter REGEX]
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile


def load_benchmarks(doc):
    """name -> benchmark dict, aggregates excluded.

    Runs that errored are kept (they carry "error_occurred"): the caller
    decides whether an error fails the guard.
    """
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = bench
    return out


def errored(bench):
    return bool(bench.get("error_occurred"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--filter",
        default=r"BM_EnumerateFig1|BM_ServiceThroughput/real_time/threads:1$"
                r"|BM_BatchVsSingle|BM_EasScoreBatch|BM_MonteCarloFig1"
                r"|BM_EnumerateGpt2")
    parser.add_argument("--factor", type=float, default=2.0)
    parser.add_argument("--min-time", type=float, default=0.25)
    parser.add_argument(
        "--obs-filter", default=r"BM_ServiceMixedThroughput",
        help="benchmark(s) whose obs_overhead_ratio must stay under the "
             "1%% telemetry budget; empty string skips the check")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    build_type = baseline_doc.get("context", {}).get("repo_build_type", "")
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        print(f"bench_guard: baseline {args.baseline} has repo_build_type="
              f"{build_type!r}; re-record it with the bench_json target",
              file=sys.stderr)
        return 1
    baseline = load_benchmarks(baseline_doc)

    def run_benchmarks(bench_filter):
        with tempfile.NamedTemporaryFile(suffix=".json") as out:
            subprocess.run(
                [args.binary,
                 f"--benchmark_filter={bench_filter}",
                 f"--benchmark_min_time={args.min_time}",
                 "--benchmark_out_format=json",
                 f"--benchmark_out={out.name}"],
                check=True, stdout=subprocess.DEVNULL)
            with open(out.name) as f:
                return load_benchmarks(json.load(f))

    current = run_benchmarks(args.filter)

    pattern = re.compile(args.filter)
    guarded = {name: bench for name, bench in current.items()
               if pattern.search(name)}
    if not guarded:
        print(f"bench_guard: filter {args.filter!r} matched no benchmarks",
              file=sys.stderr)
        return 1

    failures = []
    for name, bench in sorted(guarded.items()):
        if errored(bench):
            # An erroring benchmark measures nothing: it must not silently
            # leave the comparison.
            detail = f"errored: {bench.get('error_message', 'no message')}"
            print(f"bench_guard: [FAIL] {name}: {detail}")
            failures.append(f"{name}: {detail}")
            continue
        base = baseline.get(name)
        if base is None or errored(base):
            failures.append(f"{name}: not in baseline — re-record bench_json")
            continue
        if "items_per_second" in bench and "items_per_second" in base:
            was, now = base["items_per_second"], bench["items_per_second"]
            ratio = was / now if now > 0 else float("inf")
            detail = (f"throughput {now:,.0f}/s vs baseline {was:,.0f}/s "
                      f"({ratio:.2f}x slower)")
        else:
            was, now = base["real_time"], bench["real_time"]
            unit = bench.get("time_unit", "ns")
            ratio = now / was if was > 0 else float("inf")
            detail = (f"real_time {now:.1f}{unit} vs baseline {was:.1f}{unit} "
                      f"({ratio:.2f}x slower)")
        verdict = "FAIL" if ratio > args.factor else "ok"
        print(f"bench_guard: [{verdict}] {name}: {detail} "
              f"(limit {args.factor:.2f}x)")
        if ratio > args.factor:
            failures.append(f"{name}: {detail}")

    # Self-accounted telemetry budget: the observability layer must stay
    # under 1% of the steady-state service work it observed. The bound is
    # asserted on the serve-shaped mixed-traffic benchmark in a dedicated
    # pass (a pure cache-hit stream is too cheap per query for a fixed-rate
    # 1% budget to be meaningful — see BM_ServiceMixedThroughput). This is
    # an absolute bound, not a baseline comparison, so it needs no
    # re-recording.
    if args.obs_filter:
        obs_checked = 0
        for name, bench in sorted(run_benchmarks(args.obs_filter).items()):
            if errored(bench):
                failures.append(f"{name}: errored: "
                                f"{bench.get('error_message', 'no message')}")
                continue
            obs_ratio = bench.get("obs_overhead_ratio")
            if obs_ratio is None:
                continue
            obs_checked += 1
            verdict = "FAIL" if obs_ratio >= 0.01 else "ok"
            print(f"bench_guard: [{verdict}] {name}: obs_overhead_ratio "
                  f"{obs_ratio:.6f} (budget < 0.01)")
            if obs_ratio >= 0.01:
                failures.append(
                    f"{name}: obs_overhead_ratio {obs_ratio:.6f} >= 0.01")
        if obs_checked == 0:
            failures.append(
                f"obs filter {args.obs_filter!r} matched no benchmark "
                "exporting obs_overhead_ratio")

    if failures:
        print(f"bench_guard: {len(failures)} failure(s) (errors, or "
              f"regressions beyond {args.factor}x):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
