#!/usr/bin/env python3
"""Host-throughput benchmark of the spburst simulator.

Run from the repository root:

    python3 simbench/run.py --workload parsec-4c --seed 1 --seconds 55 --trace 0

Builds simbench/ (a CMake package over src/, Release) into
$CARGO_TARGET_DIR/simbench or .bench_build/simbench, generates the
workload's inputs from --seed into a fresh per-run directory, runs
spburst_bench on them, removes the per-run directory, and prints as its
last stdout line one JSON object {correct, attempted, failed, metrics}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
The line before it is the fingerprint (host, build, input hashes) the
result belongs to. README.md documents workloads and metrics.

    python3 simbench/run.py --update-golden   # rewrite golden.txt
"""

import argparse
import gzip
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sb-bound", "parsec-4c", "trace-sampled")
SCALES = ("full", "smoke")
# Instructions in the generated ChampSim trace; the sampled run replays
# it in a loop up to its uop extent (set in spburst_bench.cc).
TRACE_INSTRUCTIONS = {"full": 1_000_000, "smoke": 100_000}
GOLDEN_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 120


class BenchError(Exception):
    pass


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "simbench"


def check_call(cmd, timeout):
    """Run a tool quietly; its output goes to stderr only if it fails."""
    try:
        subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, check=True,
                       timeout=timeout)
    except subprocess.CalledProcessError as e:
        sys.stderr.write(e.stdout or "")
        raise BenchError(f"{Path(str(cmd[0])).name} failed: {e}") from e
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{Path(str(cmd[0])).name} failed: {e}") from e


def build(bdir):
    if not (ROOT / "src" / "sim" / "system.hh").is_file():
        raise BenchError(f"no spburst source tree under {ROOT}")
    start = time.monotonic()
    if not (bdir / "CMakeCache.txt").is_file():
        check_call(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    check_call(["cmake", "--build", bdir, "-j", jobs, "--target",
                "spburst_bench", "spburst_tracegen"],
               BUILD_TIMEOUT_S - (time.monotonic() - start))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate_trace(bdir, rundir, seed, scale):
    """spburst_tracegen --instructions=N from the seed, then gzip.

    Returns (path of the .gz, generation seconds, input hashes)."""
    raw = rundir / "trace.champsim"
    gz = rundir / "trace.champsim.gz"
    start = time.monotonic()
    check_call([bdir / "spburst_tracegen", f"--out={raw}",
                f"--instructions={TRACE_INSTRUCTIONS[scale]}",
                f"--seed={seed}"], 60)
    with open(raw, "rb") as src, \
            gzip.GzipFile(gz, "wb", compresslevel=1, mtime=0) as dst:
        shutil.copyfileobj(src, dst, 1 << 20)
    gen_s = time.monotonic() - start
    hashes = {raw.name: sha256(raw), gz.name: sha256(gz)}
    raw.unlink()
    return gz, gen_s, hashes


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def run_workload(args, bdir, golden=True):
    """Run one workload; returns (fingerprint, other lines, result)."""
    rundir = bdir.parent / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        cmd = [bdir / "spburst_bench", f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--dir={rundir}",
               f"--scale={args.scale}"]
        if golden:
            cmd.append(f"--golden={HERE / 'golden.txt'}")
        if args.alter_job:
            cmd.append(f"--alter-job={args.alter_job}")
        inputs = {}
        if args.workload == "trace-sampled":
            gz, gen_s, inputs = generate_trace(bdir, rundir, args.seed,
                                               args.scale)
            cmd += [f"--trace-file={gz}", f"--gen-seconds={gen_s:.9f}"]
        env = {k: v for k, v in os.environ.items()
               if k != "SPBURST_TRACE_CACHE"}
        try:
            proc = subprocess.run([str(c) for c in cmd], env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=args.seconds + RUN_SLACK_S)
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"spburst_bench failed: {e}") from e
        if proc.returncode != 0:
            raise BenchError(f"spburst_bench exited {proc.returncode}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if not lines or set(lines[-1]) != {"correct", "attempted", "failed",
                                       "metrics"}:
        raise BenchError("spburst_bench printed no result")
    fingerprint = {"host": host_fingerprint()}
    others = []
    for line in lines[:-1]:
        if "build" in line:
            fingerprint["build"] = line["build"]
        elif "inputs" in line:
            inputs.update(line["inputs"])
        else:
            others.append(line)
    fingerprint["inputs"] = inputs
    return fingerprint, others, lines[-1]


def update_golden(args, bdir):
    """Record every job's stats digest at the golden seed, all scales."""
    out = ["# Sorted-stats digests of every benchmark job at seed "
           f"{GOLDEN_SEED}: workload scale job digest.",
           "# Regenerate with: python3 simbench/run.py --update-golden"]
    for scale in SCALES:
        for workload in WORKLOADS:
            run_args = argparse.Namespace(
                workload=workload, seed=GOLDEN_SEED, seconds=0, trace=0,
                scale=scale, alter_job="")
            _, others, result = run_workload(run_args, bdir, golden=False)
            if not result["correct"]:
                raise BenchError(f"{workload} ({scale}) failed its checks")
            out += [f"{workload} {scale} {o['job']} {o['digest']}"
                    for o in others if "digest" in o]
    (HERE / "golden.txt").write_text("\n".join(out) + "\n")
    log(f"wrote {HERE / 'golden.txt'}")


def main():
    # On SIGTERM, unwind like an exception: subprocess.run kills and
    # reaps spburst_bench, and the per-run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="job extents; smoke is for smoke_test.py")
    ap.add_argument("--alter-job", default="",
                    help="perturb this job's config (checks must fail it)")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite golden.txt and exit")
    args = ap.parse_args()
    if not args.update_golden and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    try:
        build(bdir)
        if args.update_golden:
            update_golden(args, bdir)
            return 0
        fingerprint, others, result = run_workload(args, bdir)
    except BenchError as e:
        log(str(e))
        return 1
    for line in others:
        print(json.dumps(line))
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
