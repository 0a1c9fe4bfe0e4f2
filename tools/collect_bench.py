#!/usr/bin/env python3
"""Run the seven ablation benches with --smoke and collect the results.

Each bench prints human-readable tables plus machine-readable lines of the
form `<kind> <label> {json}` (kinds: rpc_metrics, group_commit,
latency_quantiles, stage_breakdown, ablation rows). This script executes all
seven binaries, parses every machine line, and writes one JSON document —
BENCH_smoke.json by default — with the schema documented in EXPERIMENTS.md
("BENCH_smoke.json schema"):

  {
    "benches": {
      "<bench name>": {
        "returncode": 0,
        "machine_lines": [{"kind": "...", "label": "...", "data": {...}}, ...],
        "stdout": "full captured stdout"
      }, ...
    }
  }

Usage: tools/collect_bench.py [--build-dir build] [-o BENCH_smoke.json]
Exit status is non-zero if any bench fails to run or exits non-zero.

--wallclock switches to the simulator-throughput suite: the benches and
arguments listed in tools/bench_wallclock_baseline.json are run and each
binary's `bench_wallclock <name> {json}` line (wall seconds, events retired,
events/sec — printed by bench::WallclockReporter) is folded into
BENCH_wallclock.json (schema: EXPERIMENTS.md "BENCH_wallclock.json schema"),
so simulator-throughput regressions are caught like any other perf bug
(tools/check_bench_wallclock.py enforces the budgets).
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

BENCHES = [
    "bench_ablation_replication",
    "bench_ablation_placement",
    "bench_ablation_raftset",
    "bench_ablation_batchget",
    "bench_ablation_write_window",
    "bench_ablation_group_commit",
    "bench_ablation_tenancy",
    "bench_health_gray_disk",
]

# `<kind> <label> {json}` — kind and label are whitespace-free tokens. The
# ablation benches also print bare `{json}` result rows (one per sweep cell);
# those are collected with kind "row" and the row's own "bench" field as the
# label.
MACHINE_LINE = re.compile(r"^(\w+) (\S+) (\{.*\})$")
BARE_ROW = re.compile(r"^\{.*\}$")


def parse_machine_lines(stdout: str):
    lines = []
    for line in stdout.splitlines():
        m = MACHINE_LINE.match(line)
        if m:
            kind, label, payload = m.group(1), m.group(2), m.group(3)
        elif BARE_ROW.match(line):
            kind, label, payload = "row", "", line
        else:
            continue
        try:
            data = json.loads(payload)
        except json.JSONDecodeError:
            continue  # a table row that happens to look like a machine line
        if kind == "row":
            label = str(data.get("bench", ""))
        lines.append({"kind": kind, "label": label, "data": data})
    return lines


def collect_wallclock(bench_dir: pathlib.Path, baseline_path: pathlib.Path,
                      output: str, timeout: int) -> int:
    """Run the wallclock suite from the baseline file; write BENCH_wallclock.json."""
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    result = {"benches": {}}
    failures = 0
    for name, base in baseline["benches"].items():
        binary = bench_dir / name
        argv = [str(binary)] + list(base.get("args", []))
        if not binary.is_file():
            print(f"{name}: missing (build it first)", file=sys.stderr)
            failures += 1
            continue
        print(f"running {' '.join(argv[1:])} ...", file=sys.stderr)
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {timeout}s", file=sys.stderr)
            failures += 1
            continue
        entry = {"args": base.get("args", []), "returncode": proc.returncode}
        for line in parse_machine_lines(proc.stdout):
            if line["kind"] == "bench_wallclock":
                entry.update(line["data"])
        if "events_per_sec" not in entry:
            print(f"{name}: no bench_wallclock line in output", file=sys.stderr)
            failures += 1
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failures += 1
        result["benches"][name] = entry
    with open(output, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"{output}: {len(result['benches'])} benches, {failures} failure(s)",
          file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", help="cmake build dir (default: build)")
    ap.add_argument("-o", "--output", default=None)
    ap.add_argument("--timeout", type=int, default=600, help="per-bench seconds")
    ap.add_argument("--wallclock", action="store_true",
                    help="run the simulator-throughput suite from "
                         "tools/bench_wallclock_baseline.json instead of the "
                         "ablation set; write BENCH_wallclock.json")
    ap.add_argument("--baseline",
                    default=str(pathlib.Path(__file__).resolve().parent /
                                "bench_wallclock_baseline.json"),
                    help="wallclock suite definition + baseline")
    args = ap.parse_args()

    bench_dir = pathlib.Path(args.build_dir) / "bench"
    if args.wallclock:
        return collect_wallclock(bench_dir, pathlib.Path(args.baseline),
                                 args.output or "BENCH_wallclock.json", args.timeout)
    args.output = args.output or "BENCH_smoke.json"
    result = {"benches": {}}
    failures = 0
    for name in BENCHES:
        binary = bench_dir / name
        if not binary.is_file():
            print(f"{name}: missing (build it first: cmake --build {args.build_dir} "
                  f"--target {name})", file=sys.stderr)
            failures += 1
            continue
        print(f"running {name} --smoke ...", file=sys.stderr)
        try:
            proc = subprocess.run([str(binary), "--smoke"], capture_output=True,
                                  text=True, timeout=args.timeout)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {args.timeout}s", file=sys.stderr)
            failures += 1
            continue
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failures += 1
        result["benches"][name] = {
            "returncode": proc.returncode,
            "machine_lines": parse_machine_lines(proc.stdout),
            "stdout": proc.stdout,
        }

    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"{args.output}: {len(result['benches'])} benches, {failures} failure(s)",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
