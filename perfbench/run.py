#!/usr/bin/env python3
"""Build the benchmark from source and run one pass of it.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The OCaml build goes to .bench_build
(dune's shared cache is off, so nothing is written outside the
checkout); build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's, or 2 when the checkout cannot be built.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def dune_build(target, env):
    cmd = ["dune", "build", "--root", ".", "--profile", "perfbench",
           "--build-dir", BUILD_DIR, target]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    if dune_build("./perfbench/bench.exe", env) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The snapshot probe is optional: without it the traced pass reports
    # a fresh run as the cost of forking.
    if dune_build("./perfbench/snap.exe", env) != 0:
        print("perfbench: snapshot probe not built", file=sys.stderr)
    sys.stdout.flush()
    return subprocess.call([EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
