#!/usr/bin/env python3
"""Pins perfbench's virtual-time results to a committed golden file.

    python3 tools/perfbench_golden.py check --golden FILE --results DIR
    python3 tools/perfbench_golden.py write --golden FILE --results DIR

DIR holds the output of two one-second runs per workload of BENCHMARK.json:

    perfbench/run.py --workload W --seconds 1 --trace 0 > DIR/perfbench-W-untraced.txt
    perfbench/run.py --workload W --seconds 1 --trace 1 > DIR/perfbench-W.txt

From the untraced run the golden file keeps the eight virtual end-to-end
metrics; from the traced run, four per-layer counts that pin the event
stream. Virtual time is deterministic, so `check` compares them exactly:
any change to modelled behaviour must rewrite the golden file (`write`) in
the same change. Host-time metrics (wall_s, setup_s, peak_rss_mb, ...) are
not pinned. Both runs must also report "correct": true and no failures.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNTRACED = ("read_mean_us", "read_p99_us", "update_mean_us", "update_p99_us",
            "op_p999_us", "goodput_kops", "stream_gbps", "window_ms")
TRACED = ("sim.events", "sim.thread_slices", "fabric.msgs",
          "verbs.wrs_posted")


def last_json(path):
    try:
        lines = path.read_text().strip().splitlines()
        result = json.loads(lines[-1])
    except (OSError, ValueError, IndexError) as err:
        sys.exit(f"perfbench_golden: no result in {path}: {err}")
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"perfbench_golden: {path} is not a correct run")
    return result["metrics"]


def measure(results, workload):
    """The pinned metrics of one workload, from its two result files."""
    pinned = {}
    for suffix, names in (("-untraced", UNTRACED), ("", TRACED)):
        metrics = last_json(results / f"perfbench-{workload}{suffix}.txt")
        for name in names:
            if name not in metrics:
                sys.exit(f"perfbench_golden: {workload} lacks {name}")
            pinned[name] = metrics[name]["value"]
    return pinned


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("check", "write"))
    ap.add_argument("--golden", type=Path, required=True)
    ap.add_argument("--results", type=Path, required=True)
    args = ap.parse_args()

    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())[
                     "workloads"]]
    measured = {w: measure(args.results, w) for w in workloads}
    if args.mode == "write":
        args.golden.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {args.golden}")
        return

    golden = json.loads(args.golden.read_text())
    diffs = []
    for w in sorted(set(golden) | set(measured)):
        want, got = golden.get(w, {}), measured.get(w, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                diffs.append(f"  {w} {name}: golden {want.get(name)!r}, "
                             f"measured {got.get(name)!r}")
    if diffs:
        print("virtual metrics differ from " + str(args.golden) + ":")
        print("\n".join(diffs))
        sys.exit(1)
    print(f"{len(measured)} workloads match {args.golden}")


if __name__ == "__main__":
    main()
