#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at minimal length (--seconds 1) untraced and traced,
   with --selftest: every correctness check must pass on the real reference
   and fail when handed a wrong one (shifted expected labels, a perturbed
   variance share, an extra expected epoch, ...). The workload exits 1 if
   any check is blind.
2. Confirms each result line carries exactly the metrics BENCHMARK.json
   declares for its mode.
3. Copies only BENCHMARK.json and perfbench/ into a scratch directory and
   confirms run.py there fails fast without printing a result.
Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(cond, message):
    if not cond:
        print(f"selftest: FAIL {message}")
        sys.exit(1)
    print(f"selftest: ok   {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--selftest"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            out = proc.stdout.splitlines()
            check(proc.returncode == 0,
                  f"{label} runs and every check rejects its wrong reference"
                  + ("" if proc.returncode == 0 else
                     "\n" + proc.stdout[-3000:] + proc.stderr[-3000:]))
            blind = [l for l in out if l.startswith("# selftest ")
                     and "ACCEPTED" in l]
            check(not blind, f"{label} has no blind check {blind}")
            result = json.loads(out[-1])
            check(result["correct"] is True, f"{label} outputs are correct")
            check(set(result["metrics"]) == declared[trace],
                  f"{label} reports exactly the declared metrics")

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fit_frozen",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and proc.stdout.strip() == "",
              "without the library sources run.py fails without a result")


if __name__ == "__main__":
    main()
