#!/usr/bin/env python3
"""Build the plinger-rs benchmark from source and run it.

    python3 perfbench/run.py --workload <los_cl|hierarchy_cl|sweep_serve> \
        --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --workload <name> --write-reference

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build); every argument is passed to the benchmark
binary, whose last line of standard output is the result.  Exits with
the build's or the benchmark's code when either fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
