#!/usr/bin/env python3
"""Build and run the repository benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare BASE NEW

Run from the repository root. The first call configures and builds the
library and the perfbench binary (CMake, Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build; later calls only re-check the build.
Build output goes to stderr. The binary's stdout passes through, so the
last line printed is its JSON result.

--compare reads two outputs of traced runs (files whose last line is the
result JSON) and prints, per metric, the base value, the new value and the
relative change.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = any(os.path.exists(os.path.join(out, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def last_json(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-1])


def compare(base_path, new_path):
    base = last_json(base_path)["metrics"]
    new = last_json(new_path)["metrics"]
    print(f"{'metric':44} {'base':>14} {'new':>14} {'delta':>10}  unit")
    for name, b in base.items():
        if name not in new:
            print(f"{name:44} {b['value']:14.6g} {'missing':>14}")
            continue
        bv, nv = b["value"], new[name]["value"]
        delta = f"{(nv - bv) / bv * 100:+9.2f}%" if bv else "        -"
        print(f"{name:44} {bv:14.6g} {nv:14.6g} {delta:>10}  {b['unit']}")
    for name in new:
        if name not in base:
            print(f"{name:44} {'missing':>14} {new[name]['value']:14.6g}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.selftest and not args.workload:
        parser.error("--workload, --selftest or --compare is required")
    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
