#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root (about a minute, most of it the first
build):

    python3 simbench/smoke_test.py

Runs every workload of BENCHMARK.json at the smoke extent through
run.py, untraced and traced, and checks that:
  - each run prints exactly the metrics BENCHMARK.json names for its
    mode, each with the unit given there;
  - each run is correct: every job reached its uop target, matched its
    golden digest, and the traced run reproduced the untraced run's
    stats byte-for-byte (a difference would fail the job);
  - a deliberately altered job is counted as failed;
  - in a directory holding only BENCHMARK.json and the benchmark's
    files, run.py exits non-zero without printing a result.
Exits non-zero at the first violation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A job per workload whose config the altered run perturbs.
ALTERED_JOB = {
    "sb-bound": "roms/at-commit+spb",
    "parsec-4c": "canneal/at-commit+spb",
    "trace-sampled": "at-commit+spb",
}


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "simbench/run.py", "--seconds", "0",
         "--scale", "smoke", *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def result_of(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            r = result_of(run(ROOT, "--workload", workload, "--trace",
                              str(trace)), what)
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            if units != expected[trace]:
                sys.exit(f"FAIL {what}: metrics/units differ from "
                         f"BENCHMARK.json: {sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                sys.exit(f"FAIL {what}: run not correct: {r}")
            print(f"ok   {what}: {r['attempted']} jobs, all correct")

        what = f"{workload} with {ALTERED_JOB[workload]} altered"
        r = result_of(run(ROOT, "--workload", workload, "--trace", "0",
                          "--alter-job", ALTERED_JOB[workload]), what)
        if r["correct"] or r["failed"] < 1:
            sys.exit(f"FAIL {what}: the altered job was not counted as "
                     f"failed: {r}")
        print(f"ok   {what}: {r['failed']}/{r['attempted']} failed")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL bare directory: run.py did not refuse to run")
    print(f"ok   bare directory: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
