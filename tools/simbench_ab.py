#!/usr/bin/env python3
"""Same-host A/B comparison of simulator throughput against a base revision.

Run from anywhere inside the repository:

    python3 tools/simbench_ab.py --base=REV [--workloads=parsec-4c,trace-sampled]
                                 [--pairs=5] [--seconds=55] [--align]

Checks REV out into a temporary `git worktree` ("parent") and compares it
with the working tree this script lives in ("change"). Each side builds
simbench into its own CARGO_TARGET_DIR. The benchmark (simbench/run.py)
then runs in interleaved pairs: pair k runs both sides with seed
`1 + k` (1 is the seed of the golden digests), and the side that goes
first alternates between pairs, so slow drift on the host hits both
sides alike.

Code placement alone can move a Release build's throughput by several
percent. --align configures both sides' build directories with
`-DCMAKE_CXX_FLAGS="-falign-functions=64 -falign-loops=32"` before the
first build, so that code added or removed elsewhere shifts no
function or loop start across a cache line. Without it both sides are
configured plain Release with no extra flags, as run.py configures a
fresh directory and as the benchmark is run.

Prints one JSON object: per workload and end-to-end metric of
BENCHMARK.json, the median and quartiles of each side, the ratio of
medians (change / parent), the per-pair ratios, how many pairs the
change won and a verdict. A metric is "unresolved" when either side's
quartile spread (q3 - q1) / median is wider than the metric's `bound`
in BENCHMARK.json, unless every change run beats every parent run:
the host noise then hides a move of that size either way. Otherwise
it "fails" when the ratio is worse than the bound and "passes" if not.
The report records the compiler flags (`cxx_flags`) and each side's
build fingerprint. Exits 1 if any run failed or a resolved metric
failed, else 0; unresolved metrics are reported (JSON and stderr) but
do not gate.
Only ratios taken on one host mean anything; the absolute values do
not travel between hosts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GOLDEN_SEED = 1
ALIGN_FLAGS = "-falign-functions=64 -falign-loops=32"


def log(msg):
    print(f"simbench_ab: {msg}", file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def configure(root, target, cxx_flags):
    """Configure one side's simbench build directory with @p cxx_flags
    before run.py builds it (run.py configures only a directory that
    has no CMakeCache.txt yet)."""
    subprocess.run(["cmake", "-S", str(root / "simbench"), "-B",
                    str(target / "simbench"), "-DCMAKE_BUILD_TYPE=Release",
                    f"-DCMAKE_CXX_FLAGS={cxx_flags}"],
                   check=True, stdout=subprocess.DEVNULL)


def run_bench(root, target, workload, seed, seconds, scale="full"):
    """One simbench/run.py run; returns its result object with the
    run's fingerprint under "fingerprint", or None if the run failed
    (build error, crash, no result line)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [sys.executable, "simbench/run.py", f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", "--trace=0",
           f"--scale={scale}"]
    proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    except ValueError:
        return None
    if not lines or "metrics" not in lines[-1]:
        return None
    result = lines[-1]
    for line in lines[:-1]:
        if "fingerprint" in line:
            result["fingerprint"] = line["fingerprint"]
    return result


def run_failed(result):
    return (result is None or not result.get("correct")
            or result.get("failed", 1) != 0)


def summary(values):
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def ratio(change, parent):
    if parent == 0:
        return 1.0 if change == 0 else float("inf")
    return change / parent


def worse_than_bound(r, better, bound):
    """Is change/parent ratio @p r worse than the metric's relative
    bound?"""
    return r < 1 - bound if better == "higher" else r > 1 + bound


def spread(s):
    """Quartile spread relative to the median."""
    width = s["q3"] - s["q1"]
    if s["median"] == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(s["median"])


def verdict(vals, med, r, better, bound):
    """"pass", "fail" or "unresolved" (see the module docstring)."""
    if better == "higher":
        separated = min(vals["change"]) > max(vals["parent"])
    else:
        separated = max(vals["change"]) < min(vals["parent"])
    if not separated and any(spread(med[s]) > bound for s in SIDES):
        return "unresolved"
    return "fail" if worse_than_bound(r, better, bound) else "pass"


def compare(metric, runs):
    """Summarise one metric over the paired runs of one workload."""
    name, better = metric["name"], metric["better"]
    vals = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
    med = {s: summary(vals[s]) for s in SIDES}
    r = ratio(med["change"]["median"], med["parent"]["median"])
    pair_ratios = [ratio(c, p) for p, c in zip(vals["parent"], vals["change"])]
    won = sum(1 for x in pair_ratios if (x > 1 if better == "higher" else x < 1))
    return {
        "unit": metric.get("unit", ""), "better": better,
        "bound": metric["bound"], "parent": med["parent"],
        "change": med["change"], "ratio": r, "pair_ratios": pair_ratios,
        "change_better_pairs": won,
        "spread": {s: spread(med[s]) for s in SIDES},
        "verdict": verdict(vals, med, r, better, metric["bound"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True,
                    help="git revision to compare against (the parent)")
    ap.add_argument("--workloads", default="parsec-4c,trace-sampled")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--workdir", default="",
                    help="worktree and build directories (default: a "
                         "temporary directory, removed at exit)")
    ap.add_argument("--align", action="store_true",
                    help=f"build both sides with {ALIGN_FLAGS}")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w]
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="simbench_ab-"))
    workdir.mkdir(parents=True, exist_ok=True)
    tree = workdir / "parent-src"
    roots = {"parent": tree, "change": ROOT}
    targets = {s: workdir / f"target-{s}" for s in SIDES}
    if tree.exists():  # left over from an interrupted run
        shutil.rmtree(tree)
    git("worktree", "prune")
    git("worktree", "add", "--detach", str(tree), base_commit)
    cxx_flags = ALIGN_FLAGS if args.align else ""
    try:
        # Build both sides (and check they run) before timing anything.
        builds = {}
        for side in SIDES:
            log(f"building {side}")
            configure(roots[side], targets[side], cxx_flags)
            smoke = run_bench(roots[side], targets[side], workloads[0],
                              GOLDEN_SEED, 0, "smoke")
            if run_failed(smoke):
                log(f"{side} does not build or run")
                return 1
            builds[side] = smoke.get("fingerprint", {}).get("build")
        report = {"base": args.base, "base_commit": base_commit,
                  "pairs": args.pairs, "seconds": args.seconds,
                  "cxx_flags": cxx_flags, "builds": builds,
                  "workloads": {}}
        ok = True
        for w in workloads:
            runs, failed = [], 0
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    log(f"{w} pair {k + 1}/{args.pairs}: {side}")
                    pair[side] = run_bench(roots[side], targets[side], w,
                                           GOLDEN_SEED + k, args.seconds)
                if any(run_failed(pair[s]) for s in SIDES):
                    failed += 1
                    continue
                runs.append(pair)
            entry = {"failed_pairs": failed, "metrics": {}}
            if runs:
                for m in metrics:
                    entry["metrics"][m["name"]] = compare(m, runs)
            report["workloads"][w] = entry
            for name, c in entry["metrics"].items():
                if c["verdict"] == "unresolved":
                    log(f"{w} {name}: unresolved (quartile spread "
                        f"parent {c['spread']['parent']:.2f}, change "
                        f"{c['spread']['change']:.2f} of the median > "
                        f"bound {c['bound']})")
            ok = ok and failed == 0 and bool(runs) and not any(
                c["verdict"] == "fail" for c in entry["metrics"].values())
        report["pass"] = ok
        print(json.dumps(report, indent=1))
        return 0 if ok else 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
