#!/usr/bin/env python3
"""Host wall-clock benchmark: build the driver from source, then run it.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hostbench/run.py --smoke

The first form builds hostbench/ (the repository's libraries from src/
plus driver.cpp, RelWithDebInfo) into $CARGO_TARGET_DIR/hostbench
(default .bench_build/hostbench under the checkout) and runs one
workload; the driver's last stdout line is the result JSON.  A traced
run writes its spans as Chrome-trace JSON to traces/ in that build
directory.

--smoke runs every workload on reduced inputs, untraced and traced,
and checks that each is correct and prints exactly the metrics
BENCHMARK.json declares, with their units.  It exits non-zero on any
mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def log(message):
    print(f"hostbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hostbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        log(f"{build_dir} was configured for another checkout; reconfiguring")
        cache.unlink()
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hostbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            sys.exit(2)
    return build_dir / "hostbench"


def run_driver(exe, args, capture):
    """Run the driver to completion; returns (exit code, stdout or None)."""
    try:
        done = subprocess.run([str(exe)] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 124, None
    return done.returncode, done.stdout


def smoke(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            trace_out = exe.parent / "traces" / f"smoke-{workload}.json"
            trace_out.parent.mkdir(exist_ok=True)
            code, stdout = run_driver(
                exe, ["--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", trace, "--smoke", "--trace-out", str(trace_out)],
                capture=True)
            problems = []
            result = {}
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (AttributeError, IndexError, ValueError):
                problems.append("no result line")
            if code != 0:
                problems.append(f"exit code {code}")
            if result and not (result["correct"] and result["failed"] == 0
                               and result["attempted"] >= 1):
                problems.append("incorrect outputs or failed ops")
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if result and units != expected[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(units))}, "
                                f"extra {sorted(set(units) - set(expected[trace]))}, "
                                f"unit mismatch {sorted(k for k in units if k in expected[trace] and units[k] != expected[trace][k])}")
            if trace == "1":
                try:
                    events = json.loads(trace_out.read_text())["traceEvents"]
                    if not any(e.get("ph") == "X" for e in events):
                        problems.append("trace has no spans")
                except (OSError, ValueError, KeyError):
                    problems.append("trace is missing or not JSON")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} --trace {trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    exe = build()
    if args.smoke:
        return smoke(exe)
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_out = exe.parent / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_out.parent.mkdir(exist_ok=True)
        driver_args += ["--trace-out", str(trace_out)]
    code, _ = run_driver(exe, driver_args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
