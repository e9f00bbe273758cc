#!/usr/bin/env python3
"""Records the host cost of every E-bench into BENCH_host.json.

    python3 tools/host_facts.py [--build DIR] [--out FILE] [BENCH ...]

Runs each bench binary of DIR/bench (default: build/bench) once, E13 with
--smoke and the rest at their default scale, and records per bench, from
getrusage on the child: wall time, ru_utime, ru_stime, ru_minflt and peak
RSS. host_cores is the number of CPUs this process may run on. BENCH names
(e.g. e3 e13) restrict the run to those benches. The facts are for
tracking, not gating: the script exits non-zero only when a bench fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCHES = {
    "e1": ["bench_e1_latency"],
    "e2": ["bench_e2_control_path"],
    "e3": ["bench_e3_bandwidth"],
    "e4": ["bench_e4_pagerank"],
    "e5": ["bench_e5_sort"],
    "e6": ["bench_e6_cpu"],
    "e7": ["bench_e7_striping"],
    "e8": ["bench_e8_notify"],
    "e9": ["bench_e9_kv"],
    "e10": ["bench_e10_placement"],
    "e11": ["bench_e11_ycsb"],
    "e12": ["bench_e12_cache"],
    "e13": ["bench_e13_fanin", "--smoke"],
}


def measure(cmd):
    """Runs `cmd` with its output discarded; returns its host facts."""
    start = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "utime_s": round(usage.ru_utime, 3),
        "stime_s": round(usage.ru_stime, 3),
        "minflt": usage.ru_minflt,
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),  # KiB on Linux
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", type=Path, default=Path("build"))
    parser.add_argument("--out", type=Path, default=Path("BENCH_host.json"))
    parser.add_argument("benches", nargs="*", metavar="BENCH")
    args = parser.parse_args()
    unknown = set(args.benches) - set(BENCHES)
    if unknown:
        parser.error(f"unknown bench {sorted(unknown)}; known: {list(BENCHES)}")

    facts = {}
    for name in args.benches or BENCHES:
        binary, *flags = BENCHES[name]
        facts[name] = {"cmd": " ".join([binary, *flags]),
                       **measure([str(args.build / "bench" / binary), *flags])}
        print(f"{name:4s} {facts[name]['wall_s']:8.2f} s wall  "
              f"{facts[name]['peak_rss_mib']:8.1f} MiB  "
              f"exit {facts[name]['exit_code']}", file=sys.stderr)
    report = {"host_cores": len(os.sched_getaffinity(0)), "benches": facts}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 1 if any(f["exit_code"] != 0 for f in facts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
