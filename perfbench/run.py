#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload svc_hot --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `minobs-svcd` and the `perfbench`
package (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs `perfbench` with the same arguments. Build
output goes to stderr; the last stdout line is the benchmark's JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "minobs-svc", "--bin", "minobs-svcd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "minobs-svcd")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run([bench, *sys.argv[1:], "--daemon", daemon], env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
