#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload smr-btree --seed 1 --seconds 20 --trace 0

The Go module in this directory replaces the `repro` module with the
repository root, builds the benchmark binary into .bench_build/ (build
cache included, so nothing is written outside the checkout) and runs it
from the repository root. The binary's last line of standard output is the
result: one JSON object with keys correct, attempted, failed and metrics.
Exits non-zero without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR="",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    env = go_env()
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
