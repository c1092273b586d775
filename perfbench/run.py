#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library, samplecf_cli and the
perfbench binary from source (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs one workload. The binary prints
a per-workload report and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpch_files", "tpch_advise", "serve_appends")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the build dir."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("error: benchmark build failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1
    data_dir = os.path.join(root, "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "samplecf_cli"),
           "--data-dir", data_dir]
    # Its own process group, so a timeout also stops the CLI children.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.stderr.write("error: %s did not finish within %d s\n"
                         % (args.workload, RUN_TIMEOUT_S))
        return 1
    if child.returncode != 0:
        sys.stderr.write(out)
        sys.stderr.write("error: perfbench exited with %d\n" % child.returncode)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
