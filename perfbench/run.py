#!/usr/bin/env python3
"""Build and run the UUCS benchmark for one workload.

    python3 perfbench/run.py --workload fleet_upload|fleet_join --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/; later calls rebuild only what changed. Build output goes to
stderr. The benchmark binary's stdout is passed through unchanged, so its
last line -- one JSON object with "correct", "attempted", "failed" and
"metrics" -- is the last line of this script's stdout.

Exit status: the binary's (nonzero only on a correctness violation or bad
arguments); 1 when the tree cannot be built or the run overruns its time
limit; no result line is printed in either case.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170  # one run must end within 180 s


def source_revision(root):
    """A content digest of the sources the binary is built from (the tree is
    not necessarily a git checkout)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root):
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "uucs_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # A failed configure must not leave a cache that skips it next time.
            if cmd[1] == "-S":
                shutil.rmtree(build_dir, ignore_errors=True)
            return None
    return os.path.join(build_dir, "uucs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(root, BUILD_DIR, "work-%d" % os.getpid())
    env = dict(os.environ, PERFBENCH_REVISION=source_revision(root))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        # Spans of traced runs stay under .bench_build/spans/; the rest of
        # the work dir (journals) goes.
        spans_dir = os.path.join(root, BUILD_DIR, "spans")
        if os.path.isdir(work_dir):
            for name in os.listdir(work_dir):
                if name.startswith("spans-"):
                    os.makedirs(spans_dir, exist_ok=True)
                    os.replace(os.path.join(work_dir, name), os.path.join(spans_dir, name))
            shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
