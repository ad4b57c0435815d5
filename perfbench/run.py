#!/usr/bin/env python3
"""Build and run one benchmark workload; the last stdout line is its JSON record.

    python3 perfbench/run.py --workload vmc-dram --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the mqc library from the
repository's own sources) into .bench_build/; later calls rebuild only what
changed.  Snapshots and span logs go to .bench_out/.  The OpenMP environment
is fixed here so no run depends on the caller's shell.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("vmc-dram", "vmc-cache", "dmc-branch", "jobs-open")
THREADS = 2  # every workload's thread budget (perfbench/src/bench.h kThreadBudget)
RUN_TIMEOUT_S = 170
ACTIVE_WAIT = ("vmc-dram",)  # workloads with an inner team of 2


def build():
    """Configure once, then build; output goes to stderr so stdout stays clean."""
    if not os.path.isfile(os.path.join(SOURCE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (no src/ beside perfbench/)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": str(THREADS),  # roofline ceilings use the budget
        "OMP_DYNAMIC": "false",
        "OMP_PROC_BIND": "false",
    })
    # The program's own overrides would change the workload.
    for var in ("OMP_WAIT_POLICY", "GOMP_SPINCOUNT", "OMP_PLACES", "MQC_PARTITION",
                "MQC_INNER_THREADS", "MQC_TOPOLOGY", "MQC_SHARDS", "MQC_FAULT_INJECT",
                "GLIBC_TUNABLES"):
        env.pop(var, None)
    # An inner team of 2 opens a region per electron.  Under the default
    # policy (spin briefly, then sleep) a thread descheduled between regions
    # stalls its partner, and vmc-dram's rate spread 0.16-0.23 over 5 seeds;
    # spinning waits brought it to 0.05.  Passive waits were slower still.
    # The other workloads run one OpenMP thread and keep the default.
    if args.workload in ACTIVE_WAIT:
        env["OMP_WAIT_POLICY"] = "active"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
