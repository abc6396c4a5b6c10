#!/usr/bin/env python3
"""BlackForest benchmark entry point.

Run from the root of a BlackForest checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Builds the benchmark driver and the unchanged bf_serve binary from the
checkout's sources (RelWithDebInfo, no sanitizer) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints the driver's report. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DBF_SANITIZE=",
                      "-DBF_WERROR=OFF"])
    steps.append(["cmake", "--build", build_dir, "--target", "bf_perfbench",
                  "bf_serve", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")


def find_binary(build_dir, name):
    for sub in ("", "blackforest/tools"):
        path = os.path.join(build_dir, sub, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    fail(f"{name} not found under {build_dir}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", default=10, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the root of a BlackForest checkout ({need} missing)")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, target_root, "perfbench"))
    build(root, build_dir)
    driver = find_binary(build_dir, "bf_perfbench")
    serve = find_binary(build_dir, "bf_serve")

    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-binary", serve,
           "--digests", os.path.join(root, BENCH_DIR, "digests.txt"),
           "--work-dir", work]
    # The driver and the bf_serve it starts share a fresh process group,
    # so a timeout can stop both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out or "")
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    finally:
        trace = os.path.join(work, "trace.jsonl")
        if os.path.exists(trace):
            shutil.move(trace, os.path.join(
                work_root, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        return proc.returncode
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(select_metrics(json.loads(lines[-1]), root, args.trace)))
    return 0


def select_metrics(result, root, trace):
    """Keep the metrics BENCHMARK.json declares for this mode, with its
    units. A per-layer metric the workload does not exercise reads 0; a
    missing end-to-end metric makes the run incorrect."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    measured = result["metrics"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif trace:
            value = 0
        else:
            print(f"perfbench: end-to-end metric {m['name']} not measured",
                  file=sys.stderr)
            result["correct"] = False
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
