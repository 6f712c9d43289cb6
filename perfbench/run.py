#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload quick_sweep --seed 1 --seconds 25 --trace 0

Builds the `perfbench` package (a Cargo workspace of its own under this
directory, depending on the simulator crates by path) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it with the given
arguments. The last line of standard output is the JSON result. A failed
build exits nonzero without printing a result.

`--workload all` runs every workload named in BENCHMARK.json, each in a
process of its own so that one workload's memory does not count toward the
next one's peak, and prints each one's lines in turn.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def workloads(argv):
    """The workloads to run: the --workload value, or all of BENCHMARK.json's."""
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            rest = argv[:i] + argv[i + 2:]
            return [["--workload", n, *rest] for n in names]
    return [argv]


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    code = 0
    for args in workloads(sys.argv[1:]):
        sys.stdout.flush()
        run = subprocess.run([binary, *args, "--out", out_dir], env=env)
        code = code or run.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
