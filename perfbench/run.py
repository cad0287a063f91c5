#!/usr/bin/env python3
"""Build the benchmark from source, then run it with the given arguments.

    python3 perfbench/run.py --workload cold-suite --seed 5 --seconds 20 --trace 0

Run from the repository root. The build goes to _build/ in the current
directory (the dune cache is disabled, so nothing is written outside it);
build output goes to standard error, so the benchmark's JSON result stays
the last line of standard output. Exits non-zero, without a result, if
the build or any run fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "vatbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/vatbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
