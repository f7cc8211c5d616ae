#!/usr/bin/env python3
"""Build the perfbench binary from source and run it with the given flags.

Run from the repository root:

    python3 perfbench/run.py --workload st-large --seed 1 --seconds 12 --trace 0

Everything the build writes (binary, Go build cache, Go config) stays under
.bench_build/ in the repository root. The Go program prints the result line.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
