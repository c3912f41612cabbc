#!/usr/bin/env python3
"""Serving benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload longdoc_qa --seed 1 --seconds 25 --trace 0

Builds perfbench_driver from the repository's sources (into .bench_build/),
runs it, checks the outputs and prints, as its last stdout line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
on any failed request or token mismatch. See perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
# A run ends well inside the 180 s a benchmark run may take.
DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds the driver (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no repository sources next to {HERE}")
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_driver(args, out_dir):
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir.relative_to(ROOT))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    load_start = loadavg()
    out_dir = (ROOT / ".bench_build" / "runs" /
               f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if not run_driver(args, out_dir):
            return 1
        with open(out_dir / "raw.json") as f:
            raw = json.load(f)
        if args.trace:
            with open(out_dir / "trace.json") as f:
                trace = json.load(f)
            # Kept for reading self-times in Perfetto (see README).
            shutil.copy(out_dir / "trace.json",
                        ROOT / ".bench_build" / f"trace-{args.workload}.json")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    load_end = loadavg()

    phases = raw["phases"]
    measured = [p for p in phases if p["traced"] == args.trace]
    sent = sum(len(p["requests"]) for p in measured)
    failed = [r for p in measured for r in p["requests"] if r["error"]]
    try:
        if args.trace:
            values, notes = metrics.per_layer(raw, phases[1], phases[0], trace)
        else:
            values, notes = metrics.end_to_end(raw, phases[0]), []
    except metrics.InsufficientSamples as e:
        log(f"perfbench: refusing to report: {e}")
        return 1

    host = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "simd": raw["simd"],
        "build_type": raw["build_type"],
        "loadavg_start": load_start,
        "loadavg_end": load_end,
    }
    print("host " + json.dumps(host))
    print(f"requests sent={sent} succeeded={sent - len(failed)} "
          f"failed={len(failed)} reference_checked={raw['references_checked']}")
    for r in failed[:10]:
        print(f"failed request {r['index']}: {r['error']}")
    if raw["trace_dropped_events"]:
        notes.append(f"trace dropped {raw['trace_dropped_events']} events")
    for note in notes:
        print("note " + note)
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = not failed and raw["references_checked"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": sent,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
