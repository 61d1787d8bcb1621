#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload tall_qr --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  measures set-up in a few fresh processes plus the
             measuring process itself (setup_s is their median), runs the
             workload for --seconds and prints every end-to-end metric;
  --trace 1  runs the traced variant and prints every per-layer metric; the
             spans are written to <build>/spans/<workload>-seed<n>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero when a check failed, and
without printing a result when the program cannot be built or run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("tall_qr", "wide_lq", "stream_ls")
# Cold set-ups measured in fresh processes besides the measuring one; the
# stream set-up takes milliseconds, so it can afford more samples.
SETUP_PROCESSES = {"tall_qr": 2, "wide_lq": 2, "stream_ls": 10}
CHILD_TIMEOUT_S = 170
# Workers pinned one per core, as tiled-QR runtimes are usually run: with
# placement left to the OS, stream_ls throughput moved by about 10% between
# otherwise identical processes.
CHILD_ENV = dict(os.environ, TILEDQR_PIN="1")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"{root} does not hold the library sources (CMakeLists.txt, src/)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_child(cmd):
    """Runs the benchmark binary; returns (exit code, stdout lines, parsed last line)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                              env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    try:
        return proc.returncode, lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparsable result line from {' '.join(cmd)}")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    print("stamp " + json.dumps({"git_sha": git_sha(root), "TILEDQR_PIN": CHILD_ENV["TILEDQR_PIN"]}))

    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
        code, lines, result = run_child(base + ["--trace", "1", "--spans", spans])
        print("\n".join(lines))
        print(json.dumps(result))
        sys.exit(code)

    setups, attempted, failed = [], 0, 0
    for _ in range(SETUP_PROCESSES[args.workload]):
        _, _, r = run_child(base + ["--setup-only"])
        setups.append(r["setup_s"])
        attempted += r["attempted"]
        failed += r["failed"]
    _, lines, result = run_child(base + ["--trace", "0"])
    metrics = result["metrics"]
    setups.append(metrics["setup_s"]["value"])
    metrics["setup_s"]["value"] = statistics.median(setups)
    result["attempted"] += attempted
    result["failed"] += failed
    result["correct"] = result["correct"] and failed == 0
    metrics["ok_frac"]["value"] = (result["attempted"] - result["failed"]) / result["attempted"]
    print("\n".join(lines))
    print("stamp " + json.dumps({"setup_samples_s": setups}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
