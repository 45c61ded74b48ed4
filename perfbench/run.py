#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_aged --seed 3 \
        --seconds 24 --trace 0

It configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints every metric by name with its unit followed by one JSON
result line. BENCHMARK.json is the one list of metric names and units: the
end-to-end metrics printed must be exactly its "end_to_end" list, and the
per-layer metrics a subset of its "per_layer" list, the rest (work the
workload never does) reported as 0. The exit status is non-zero when the
build or the run fails (no result line) or when an output check fails (the
result line then reads "correct": false).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_stream", "serve_young", "serve_aged")
# The longest --seconds a run may measure (as the program's kMaxSeconds):
# a traced 60-second run of the slowest workload took 133 s on a 4-vCPU host.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    def non_negative_int(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError("expected a whole number")
        return int(text)

    def seconds(text):
        value = non_negative_int(text)
        if not 1 <= value <= MAX_SECONDS:
            raise argparse.ArgumentTypeError("expected 1..%d" % MAX_SECONDS)
        return value

    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--plant-mismatch", default="0", choices=("0", "1"),
                        help="flip one replayed decision (the run must fail)")
    return parser.parse_args(argv)


def source_digest(root):
    """Content hash of the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def git_sha(root):
    """HEAD of the checkout, or "unknown" outside a git checkout. The search
    for a repository stops at the checkout root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if result.returncode != 0:
                with open(log_path) as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench")


def conform(root, trace, result):
    """Returns the result with exactly BENCHMARK.json's metrics, in its
    order, and the lines naming the per-layer metrics added as 0."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    got = result["metrics"]
    want = [m["name"] for m in expected]
    unexpected = sorted(set(got) - set(want))
    missing = [name for name in want if name not in got]
    if unexpected or (missing and trace == "0"):
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (missing, unexpected))
    metrics, filled = {}, []
    for m in expected:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                fail("metric %s has unit %s, BENCHMARK.json says %s"
                     % (m["name"], got[m["name"]]["unit"], m["unit"]))
            metrics[m["name"]] = got[m["name"]]
        else:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            filled.append("%s = 0 %s (not exercised by this workload)"
                          % (m["name"], m["unit"]))
    return dict(result, metrics=metrics), filled


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(bench_dir, "..", "src",
                                       "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(bench_dir, os.path.join(root, build_root, "perfbench"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--plant-mismatch", args.plant_mismatch,
               "--work-dir", os.path.join(root, ".bench_work"),
               "--source-digest", source_digest(root),
               "--git-sha", git_sha(root)]
    # Checkpoint writes skip fsync: on a shared host the disk flush latency
    # swamps the code's own cost. The fingerprint records the setting.
    env = dict(os.environ)
    env.setdefault("FACTION_NO_FSYNC", "1")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line (exit status %d)" % run.returncode)
    if run.returncode != 0 or not result.get("correct", False):
        sys.stdout.write(run.stdout)
        fail("output check failed (exit status %d)" % run.returncode)
    result, filled = conform(root, args.trace, result)
    for line in lines[:-1] + filled:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
