#!/usr/bin/env python3
"""Build and run the perfbench binary.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the binary (perfbench/CMakeLists.txt, Release) from this checkout's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root), then runs it. Build output goes to stderr;
the binary's stdout passes through unchanged, so its last line is the
result object. Extra arguments (--tamper, --inputs-only) go to the binary.
Exits non-zero without a result when the checkout has no library sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources under %s/src\n" % ROOT)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    cmd = [os.path.join(out, "perfbench"), "--repo-root", ROOT,
           "--work-dir", os.path.join(out, "work")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
