#!/usr/bin/env python3
"""Compare BENCH_*.json emitters against the committed perf baseline.

Reads tools/bench_baseline.json (tracked metrics + regression threshold),
loads each referenced BENCH_<suite>.json from --dir, and fails with a
readable table when

  * a tracked metric regresses more than the threshold (default 15%)
    below its committed baseline,
  * a tracked metric or its BENCH file is missing (an emitter rotted), or
  * any gate recorded by a tracked BENCH file is false.

Tracked metrics are mostly speedups (two timings from the same run), not
absolute milliseconds, so they stay comparable across machines and load
levels. The few absolute rates (recovered streams/s, corpus-load MB/s)
are marked "absolute": true in the baseline file and carry baselines
several times below locally measured values: they catch an algorithmic
regression, not machine speed.
Every BENCH file also carries a {"name": "machine"} row recording the
measuring machine's hardware_concurrency; when it differs from the
baseline file's recorded value the script prints a warning naming both
values (never a failure — relative metrics mostly survive a core-count
change, but contention-sensitive ones deserve a second look).

With --write-baseline the roles reverse: every tracked metric's baseline
is refreshed from the measured value, discounted by --write-margin
(default 0.15) so the committed floor stays deliberately conservative —
writing the exact machine-local number would turn shared-runner timing
noise into CI failures, which is the flake the margin exists to absorb.
Refreshing after a deliberate perf change is thus one command instead of
hand-edited JSON. Entries marked "absolute" keep their baseline: 85% of
a rate measured on a fast machine would fail every slower runner, so an
absolute floor is only ever edited by hand. Regressions do not fail a write run — they are what the
write exists to record. The write is refused (exit 1) only when a tracked
metric's BENCH file or row is missing, or when a bench recorded a failing
correctness gate: numbers from a run that failed its own gates would bake
a buggy build into the baseline.

With --list the script prints every tracked metric (file, result, metric,
committed baseline) and exits without reading any BENCH file — the quick
answer to "what does CI actually gate on?".

All failure modes exit with a named one-line error (exit 2 for a missing
or malformed baseline file, exit 1 for missing metrics/regressions),
never a Python traceback.

Usage: python3 tools/bench_diff.py [--dir DIR] [--baseline PATH] [--list]
                                   [--write-baseline] [--write-margin M]
"""

import argparse
import json
import os
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fail(message):
    print("bench_diff: error: %s" % message, file=sys.stderr)
    return 2


def find_result(bench, result_name):
    for row in bench.get("results", []):
        if row.get("name") == result_name:
            return row
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir", default=".", help="directory holding the BENCH_*.json files"
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "bench_baseline.json"),
        help="committed baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="update every tracked entry's baseline, except those marked "
        '"absolute", to its measured value discounted by --write-margin, '
        "and rewrite the baseline file "
        "(regressions do not fail the run; missing files/metrics and "
        "failing gates do)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_tracked",
        help="print the tracked metrics and their committed baselines, "
        "then exit without reading any BENCH file",
    )
    parser.add_argument(
        "--write-margin",
        type=float,
        default=0.15,
        help="conservative discount applied to measured values by "
        "--write-baseline (0.15 writes 85%% of the measured speedup), so "
        "committed floors keep headroom against runner timing noise",
    )
    args = parser.parse_args()
    if not 0.0 <= args.write_margin < 1.0:
        parser.error("--write-margin must be in [0, 1)")

    try:
        baseline = load_json(args.baseline)
    except OSError as error:
        return fail("cannot read baseline file %s (%s)" % (args.baseline, error))
    except json.JSONDecodeError as error:
        return fail("baseline file %s is not valid JSON: %s" % (args.baseline, error))
    threshold = float(baseline.get("regression_threshold", 0.15))
    tracked_list = baseline.get("tracked")
    if not isinstance(tracked_list, list):
        return fail('baseline file %s has no "tracked" list' % args.baseline)
    for index, tracked in enumerate(tracked_list):
        missing = [
            key
            for key in ("file", "result", "metric", "baseline")
            if not isinstance(tracked, dict) or key not in tracked
        ]
        if missing:
            return fail(
                'baseline entry #%d is missing key(s) %s in %s'
                % (index + 1, ", ".join('"%s"' % key for key in missing), args.baseline)
            )

    if args.list_tracked:
        print(
            "%d tracked metric(s) in %s (regression threshold %d%%):"
            % (len(tracked_list), args.baseline, round(threshold * 100))
        )
        for tracked in tracked_list:
            print(
                "  %-24s %-24s %-12s baseline %.2f"
                % (
                    tracked["file"],
                    tracked["result"],
                    tracked["metric"],
                    float(tracked["baseline"]),
                )
            )
        return 0

    rows = []
    failures = 0
    bench_cache = {}
    for tracked in tracked_list:
        file_name = tracked["file"]
        result_name = tracked["result"]
        metric = tracked["metric"]
        base = float(tracked["baseline"])
        floor = base * (1.0 - threshold)
        path = os.path.join(args.dir, file_name)

        if file_name not in bench_cache:
            try:
                bench_cache[file_name] = load_json(path)
            except (OSError, json.JSONDecodeError) as error:
                bench_cache[file_name] = error
        bench = bench_cache[file_name]

        if isinstance(bench, Exception):
            rows.append((file_name, result_name, metric, base, "-", "MISSING FILE"))
            failures += 1
            continue
        row = find_result(bench, result_name)
        if row is None or metric not in row:
            rows.append((file_name, result_name, metric, base, "-", "MISSING METRIC"))
            failures += 1
            continue
        value = float(row[metric])
        if args.write_baseline and tracked.get("absolute"):
            status = "baseline %.2f kept (absolute rate, measured %.2f)" % (
                base,
                value,
            )
        elif args.write_baseline:
            tracked["baseline"] = round(value * (1.0 - args.write_margin), 2)
            status = "baseline %.2f -> %.2f (measured %.2f - %d%% margin)" % (
                base,
                tracked["baseline"],
                value,
                round(args.write_margin * 100),
            )
        elif value < floor:
            status = "REGRESSED (>%d%% below baseline)" % round(threshold * 100)
            failures += 1
        else:
            status = "ok"
        rows.append((file_name, result_name, metric, base, "%.2f" % value, status))

    gate_rows = []
    gate_failures = 0
    hc_warnings = []
    baseline_hc = baseline.get("hardware_concurrency")
    for file_name, bench in sorted(bench_cache.items()):
        if isinstance(bench, Exception):
            continue
        for gate_name, passed in bench.get("gates", {}).items():
            gate_rows.append((file_name, gate_name, passed))
            if not passed:
                gate_failures += 1
        # Benches record the measuring machine's logical core count as a
        # {"name": "machine"} row. Speedups are relative metrics, but a
        # different core count than the baseline machine's still shifts
        # contention-sensitive ratios — warn (never fail) so a surprising
        # diff is read with that in mind.
        machine = find_result(bench, "machine")
        run_hc = machine.get("hardware_concurrency") if machine else None
        if args.write_baseline and run_hc is not None:
            baseline["hardware_concurrency"] = int(run_hc)
        elif (
            baseline_hc is not None
            and run_hc is not None
            and int(run_hc) != int(baseline_hc)
        ):
            hc_warnings.append(
                "bench_diff: warning: %s was measured with "
                "hardware_concurrency=%d but the baseline was recorded with "
                "hardware_concurrency=%d — speedups may not be comparable"
                % (file_name, int(run_hc), int(baseline_hc))
            )

    headers = ("file", "metric", "kind", "baseline", "value", "status")
    table = [headers] + [
        (f, r, m, "%.2f" % b, v, s) for (f, r, m, b, v, s) in rows
    ]
    widths = [max(len(str(row[i])) for row in table) for i in range(len(headers))]
    for index, row in enumerate(table):
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            print("  ".join("-" * widths[i] for i in range(len(headers))))

    print()
    for file_name, gate_name, passed in gate_rows:
        print("gate %-24s %-36s %s" % (file_name, gate_name, "pass" if passed else "FAIL"))
    for warning in hc_warnings:
        print(warning)

    if args.write_baseline:
        if failures or gate_failures:
            reasons = []
            if failures:
                reasons.append("%d tracked metric(s) missing" % failures)
            if gate_failures:
                reasons.append("%d bench gate(s) failing" % gate_failures)
            print(
                "\nbench_diff: NOT writing %s — %s"
                % (args.baseline, ", ".join(reasons))
            )
            return 1
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print("\nbench_diff: wrote measured baselines to %s" % args.baseline)
        return 0
    if failures or gate_failures:
        print(
            "\nbench_diff: %d failure(s) against %s"
            % (failures + gate_failures, args.baseline)
        )
        return 1
    print("\nbench_diff: all tracked metrics within %d%% of baseline" % round(threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
