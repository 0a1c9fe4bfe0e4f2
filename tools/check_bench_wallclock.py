#!/usr/bin/env python3
"""CI gate for simulator throughput: check BENCH_wallclock.json against the
committed baseline (tools/bench_wallclock_baseline.json).

For every bench in the baseline the run must:

  - be present in BENCH_wallclock.json with a bench_wallclock result;
  - finish within its wall-clock budget (`budget_sec`). A bench that pins
    `events` is gated on speed this way: its budget is the wall time that
    count of events may take (events / budget_sec is the speed floor), so a
    run passes or fails on wall time alone, not on a ratio whose numerator
    moves whenever the event count is re-pinned;
  - retire exactly the baseline's `events` count, when one is pinned — the
    event count is a schedule-preservation invariant (same seed, same
    workload => same executed-event stream), so a drift means the simulated
    behavior changed, not just its speed;
  - stay at or below `max_allocs_per_rpc`, when the baseline sets one (the
    RPC transport's zero-heap-allocation contract: bench_micro --rpc-churn
    reports measured allocations per steady-state unary RPC);
  - peak at or below `max_rss_mb` resident memory, when the baseline sets
    one (the bench reports its own getrusage peak).

Usage: tools/check_bench_wallclock.py BENCH_wallclock.json
       [--baseline tools/bench_wallclock_baseline.json]
Exit 0 = within budget, 1 = regression or malformed input.
"""

import argparse
import json
import pathlib
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", help="BENCH_wallclock.json from collect_bench.py --wallclock")
    ap.add_argument("--baseline",
                    default=str(pathlib.Path(__file__).resolve().parent /
                                "bench_wallclock_baseline.json"))
    args = ap.parse_args()

    with open(args.results, encoding="utf-8") as f:
        results = json.load(f)["benches"]
    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)["benches"]

    failures = []
    for name, base in baseline.items():
        got = results.get(name)
        if not got or "wall_sec" not in got:
            failures.append(f"{name}: no wallclock result in {args.results}")
            continue
        wall, events, eps = got["wall_sec"], got.get("events"), got.get("events_per_sec")
        line = f"{name}: {wall:.3f}s, {events} events, {eps:.0f} events/sec"
        if "max_rss_mb" in got:
            line += f", {got['max_rss_mb']} MB peak RSS"
        print(line)
        if got.get("returncode", 0) != 0:
            failures.append(f"{name}: exited {got['returncode']}")
        budget = base.get("budget_sec")
        if budget is not None and wall > budget:
            msg = f"{name}: wall {wall:.3f}s exceeds budget {budget}s"
            if "events" in base:
                msg += (f" for {base['events']} events "
                        f"(floor {base['events'] / budget:.0f} events/sec)")
            failures.append(msg)
        if "events" in base and events != base["events"]:
            failures.append(
                f"{name}: executed {events} events, baseline pins {base['events']} "
                "(schedule drift, not a perf regression — investigate before "
                "re-baselining)")
        alloc_cap = base.get("max_allocs_per_rpc")
        if alloc_cap is not None:
            allocs = got.get("allocs_per_rpc")
            if allocs is None:
                failures.append(f"{name}: baseline caps allocs_per_rpc but the "
                                "run did not report it")
            elif allocs > alloc_cap:
                failures.append(
                    f"{name}: {allocs} heap allocations per RPC exceeds the cap "
                    f"{alloc_cap} (the transport's zero-allocation contract)")

        rss_cap = base.get("max_rss_mb")
        if rss_cap is not None:
            rss = got.get("max_rss_mb")
            if rss is None:
                failures.append(f"{name}: baseline caps max_rss_mb but the run "
                                "did not report it")
            elif rss > rss_cap:
                failures.append(f"{name}: peak RSS {rss} MB exceeds the cap {rss_cap} MB")

    for f_ in failures:
        print(f"FAIL {f_}", file=sys.stderr)
    if failures:
        print(f"check_bench_wallclock: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("check_bench_wallclock: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
