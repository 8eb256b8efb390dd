#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mesh-pdes --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the Go package in this
directory (a module of its own that uses the simulator through a
`replace` of the parent module) into .bench_build/, with the Go build
cache, module cache, temporary files and tool state also kept under
.bench_build/, then runs it. The benchmark's last line of standard
output is its JSON result; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "XDG_CACHE_HOME": "home/.cache",
    }
    for key, rel in dirs.items():
        path = os.path.join(BUILD, rel)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build offline with the installed toolchain only.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOWORK="off",
               GOFLAGS="", CGO_ENABLED="0")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-work", os.path.join(BUILD, "work")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
