#!/usr/bin/env python3
"""Build the perfbench harness from source and run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload fig17-grid --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in
the repository: the Go build cache, the binary, the scratch directory
holding the generated trace and the rifserve store and journal, and the
traced run's span files. The harness prints one JSON result as the last
line of standard output; this script adds nothing after it and exits
with the harness's status.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(BUILD, "bin", "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory whatever GOTELEMETRY says; keep them in the checkout.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "core"))):
        print("perfbench: the repository sources (go.mod, internal/) are missing beside perfbench/",
              file=sys.stderr)
        return 2

    env = go_env()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(os.path.dirname(BIN), exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-trimpath", "-o", BIN, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(BUILD, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [BIN, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-work", work, "-out", BUILD]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
