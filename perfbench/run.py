#!/usr/bin/env python3
"""Build (on first use) and run one perfbench workload.

    python3 perfbench/run.py --workload <paper_calls|city_conference|stream_churn>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The benchmark package (perfbench/) is
configured and built into .bench_build/perfbench from the checkout's own
sources; the binary's last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Exits nonzero, without a
result line, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("paper_calls", "city_conference", "stream_churn")
BUILD_JOBS = 4


def build(root, build_dir, jobs):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs),
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir, max(1, min(BUILD_JOBS, os.cpu_count() or 1))):
        return 1

    out_dir = os.path.join(root, ".bench_build", "perfbench-out",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    # setup_s counts from here: exec, loading and the workload's set-up.
    cmd += ["--start-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
