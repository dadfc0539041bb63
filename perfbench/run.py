#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the repository's
sources one directory up) into the build directory named by
CARGO_TARGET_DIR, or .bench_build, relative to the repository root.
Build output goes to standard error; the benchmark's own output,
ending with its one-line JSON result, goes to standard output. The
exit code is the benchmark's (non-zero on any failed operation or
wrong output), or 2 if the sources or the build are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["cmt_perfbench", "cmt_served", "cmt_sim_cli"]


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (looked in %s)"
             % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, stderr=sys.stderr, check=False)
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                           "--target"] + TARGETS,
                          stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        fail("build failed")


def main():
    os.chdir(ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    exe = os.path.join(build_dir, "cmt_perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no %s" % exe)
    sys.stdout.flush()
    # cmt_perfbench's exit code and output pass straight through; it
    # reaps every process it starts before it returns.
    done = subprocess.run([exe] + sys.argv[1:], check=False)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
