#!/usr/bin/env python3
"""Benchmark of `wfc serve`: builds the daemon and the benchmark program
from source, then runs one workload.

    python3 perfbench/run.py --workload warm_hits|cold_solves|mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
the result object; build output goes to standard error.
"""
import os
import subprocess
import sys

WORKLOADS = ("warm_hits", "cold_solves", "mixed")


def usage(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(2)


def parse(argv):
    if len(argv) % 2:
        usage("expected --flag value pairs")
    opts = dict(zip(argv[0::2], argv[1::2]))
    want = {"--workload", "--seed", "--seconds", "--trace"}
    if set(opts) != want:
        usage("need exactly %s" % " ".join(sorted(want)))
    if opts["--workload"] not in WORKLOADS:
        usage("unknown workload %r" % opts["--workload"])
    if opts["--trace"] not in ("0", "1"):
        usage("--trace is 0 or 1")
    try:
        int(opts["--seed"])
        if int(opts["--seconds"]) < 1:
            raise ValueError
    except ValueError:
        usage("--seed and --seconds are integers, --seconds at least 1")
    return opts


def main():
    opts = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for needed in ("dune-project", "bin", "lib"):
        if not os.path.exists(needed):
            usage("%s not found: run from a checkout of the repository" % needed)
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/wfc_cli.exe", "./perfbench/wfcbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        usage("build failed")
    sys.stdout.flush()
    bench = os.path.join("_build", "default", "perfbench", "wfcbench.exe")
    wfc = os.path.join("_build", "default", "bin", "wfc_cli.exe")
    os.execv(bench, [bench, "--wfc", wfc] + sys.argv[1:])


if __name__ == "__main__":
    main()
