#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The harness (perfbench/main.ml) is
built with dune into the tree's own _build directory; the dune cache is
disabled so nothing is written outside the tree.  The harness's last
line of standard output is the result object; see perfbench/README.md.
Exits non-zero, without a result, when the tree cannot be built.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("perfbench: run from the root of the simulator's source tree\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
