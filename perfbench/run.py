#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload fit_frozen --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The program is a standalone CMake project
(perfbench/CMakeLists.txt) that compiles the library from src/; it is built
into .bench_build/perfbench on first use, and the pretrained checkpoints the
workloads load are made once into .bench_build/perfbench_work/ckpt (again
whenever the program binary changes). The workload's output is passed through;
its last line is the result JSON. Add --selftest to also require every
correctness check to reject a wrong reference (see selftest.py).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench_work"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

# Environment of each workload on top of the common settings: two compute
# threads as in CI. The int8 switches are environment variables, so a build
# that no longer reads one falls back to its default instead of failing.
WORKLOAD_ENV = {
    "fit_frozen": {},
    "fit_lcomb": {},
    "serve_int8": {"TSFM_QUANT": "int8", "TSFM_SIMD": "1"},
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def workload_env(extra):
    # Drop every TSFM_* switch the caller may have set (embedding cache,
    # graph mode, tracing, run reports, budgets) so it cannot change what is
    # measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSFM_")}
    env["TSFM_NUM_THREADS"] = "2"
    env.update(extra)
    return env


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", jobs], "build")


def prepare():
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()
    stamp = WORK / "ckpt" / "stamp"
    if stamp.is_file() and stamp.read_text() == digest:
        return
    run_quiet([str(BINARY), "--prepare", "--work-dir", str(WORK)],
              "checkpoint preparation")
    stamp.write_text(digest)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOAD_ENV)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    prepare()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(WORK)]
    if args.selftest:
        cmd.append("--selftest")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            env=workload_env(WORKLOAD_ENV[args.workload]),
                            text=True)
    # The workload never outlives this script: a timeout or a signal kills
    # it, and the script waits for it to end.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stderr.write(out)
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"workload exited with {proc.returncode}")
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
