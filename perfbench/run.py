#!/usr/bin/env python3
"""Build and run heat's end-to-end benchmark.

    python3 perfbench/run.py --workload mult4 --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The benchmark package in this
directory is configured and built (Release) into the build directory
(CARGO_TARGET_DIR when set, else .bench_build), then the perfbench binary
runs the workload. Build output goes to standard error. The binary's last
standard-output line, one JSON object, is checked against BENCHMARK.json:
it must carry exactly the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1), each with its declared unit. Traced runs write their
Chrome trace to <build dir>/traces/; temporaries go to <build dir>/tmp/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no heat source tree at {ROOT}")
    expected = expected_metrics(args.trace)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and benchmark temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    try:
        binary = build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-dir", trace_dir],
        stdout=subprocess.PIPE, text=True, timeout=170, env=env)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"perfbench printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, unexpected "
             f"{sorted(set(got) - set(expected))}, units "
             f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
