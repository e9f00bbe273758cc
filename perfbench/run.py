#!/usr/bin/env python3
"""Runs one workload of the RStore benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call builds the harness (perfbench.cc and the sources under src/)
with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, relative to the repository root; later calls rebuild
only what changed.

With --trace 0 the result carries every end-to-end metric of BENCHMARK.json;
with --trace 1 every per-layer metric, from a traced run that must match the
untraced runs in virtual time and whose span file must pass trace_check.
Human-readable lines come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every output check passed. Without the sources (or a toolchain) the
script exits 2 before printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_specs():
    """BENCHMARK.json's metric lists, joined with perfbench/metrics.json."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        extra = json.loads((HERE / "metrics.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read the metric definitions: {err}")
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"] for m in bench[kind]}
        if listed != set(extra[kind]):
            fail(f"BENCHMARK.json and metrics.json disagree on {kind}: "
                 f"{sorted(listed ^ set(extra[kind]))}")
    return bench, extra


def build(build_dir):
    """Configures once, then builds; returns the binaries' directory."""
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *generator, "-S", str(HERE), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with log.open("w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out,
                                      stderr=subprocess.STDOUT)
            except OSError as err:
                fail(f"cannot run {step[0]}: {err}")
            if done.returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return build_dir


def run(cmd):
    """Runs `cmd`, killing it if it overstays; returns (code, stdout)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{Path(cmd[0]).name} ran past {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def main():
    bench, extra = load_specs()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=extra["seeds"]["default"])
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bin_dir = build(target / "perfbench")
    cmd = [str(bin_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace_file = target / "perfbench-out" / f"{args.workload}.trace.json"
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_file)]

    code, stdout = run(cmd)
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"perfbench exited {code} without a result")
    problems = list(result["problems"])
    if code != 0 and not problems:
        problems.append(f"perfbench exited {code}")

    if args.trace:
        check = [str(bin_dir / "trace_check"), str(trace_file),
                 "--require-category", "bench"]
        if args.workload.startswith("kv-"):
            check.append("--require-flows")  # rtrace's per-op flows
        check_code, check_out = run(check)
        print(check_out.rstrip())
        if check_code != 0:
            problems.append("trace_check rejected the span file")

    kind = "per_layer" if args.trace else "end_to_end"
    measured = result[kind]
    metrics = {}
    for spec in bench[kind]:
        name = spec["name"]
        if name in measured:
            value = measured[name]
        elif args.workload in extra[kind][name]["applies_to"]:
            problems.append(f"metric {name} was not measured")
            continue
        else:
            value = 0  # the layer does no work on this workload
        metrics[name] = {"value": value, "unit": spec["unit"]}

    print(f"{args.workload} seed {args.seed}: {result['runs']} measured runs")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    attempted = result["attempted"]
    failed_frac = (result["failed"] + result["refused"]) / max(attempted, 1)
    print(f"  op_p999_us samples: {result['samples']}")
    print(f"  failed_frac: {failed_frac:.6g} ({result['failed']} failed, "
          f"{result['refused']} shed, of {attempted} attempted)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
