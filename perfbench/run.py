#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload grid|serve-mix|fuzz --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the analyzer libraries and the benchmark from source into
.bench_build/perfbench under the checkout root (the first run pays the
build), runs one workload, checks that the result line names exactly the
metrics BENCHMARK.json declares, and relays the benchmark's output; its
last line is the JSON result. Exits non-zero, without a result line, when
the sources, the build or the run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """A content hash of the analyzer and benchmark sources: the build's
    provenance when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("analyzer sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log,
                               env=env) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                die("configure failed (log removed with the build tree)")
        if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
                           stdout=log, stderr=log, env=env) != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            die("build failed; see " + log_path)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        die("cannot read BENCHMARK.json: %s" % err)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["grid", "serve-mix", "fuzz"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()

    if args.selftest:
        build()
        proc = run([os.path.join(BUILD_DIR, "perfbench_selftest"),
                    "--root", ROOT, "--work-dir", WORK_DIR])
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    wanted = declared_metrics(args.trace == 1)
    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", WORK_DIR,
           "--source-id", source_digest()]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = run(cmd)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        die("last output line is not a JSON result")
    if set(result.get("metrics", {})) != wanted:
        sys.stderr.write(proc.stdout)
        die("result metrics differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
