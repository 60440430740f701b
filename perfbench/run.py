#!/usr/bin/env python3
"""Repository benchmark for the LSQCA simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Builds the driver and the `lsqca` worker binary into .bench_build/perfbench
(Release), generates the workload's spec files from --seed, and then either

  --trace 0: repeats untraced passes of the workload for --seconds,
             rounded up to whole cycles through the seed's input
             variants, and reports the median of each end-to-end metric
             over the passes;
  --trace 1: runs the traced suite once and reports the per-layer metrics.

Every pass checks each job's simulated fields against the committed
reference in perfbench/reference/. The last line of stdout is the result
object; the line before it is the run record. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
RUNS = ROOT / ".bench_build" / "perfbench-runs"
DRIVER = BUILD / "perfbench_driver"
WORKER = BUILD / "lsqca" / "lsqca"
WORKLOADS = ("figures", "select_full")
DEFAULT_SEED = 1
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo")
# Input variants drawn from one seed; pass i runs variant i % VARIANTS.
# Peak memory and the sweep's tail depend on the job order, so a run
# that averages over several orders is steadier from seed to seed. A
# run always ends on a whole number of cycles through the variants, so
# a faster or slower program is measured on the same inputs.
VARIANTS = 8
# The sources each binary is compiled from.
WORKER_SOURCES = ("src", "tools/lsqca_cli.cpp")
DRIVER_SOURCES = WORKER_SOURCES + ("perfbench/driver",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message):
    log("perfbench: " + message)
    sys.exit(2)


def threads():
    return len(os.sched_getaffinity(0))


def check_checkout():
    for rel in DRIVER_SOURCES + ("CMakeLists.txt", "BENCHMARK.json"):
        if not (ROOT / rel).exists():
            die(f"{ROOT / rel} is missing; run from a full checkout")


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    command = ["cmake", "--build", str(BUILD), "-j", str(threads()),
               "--target", "perfbench_driver", "lsqca_cli"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        die("build failed")


def cache_value(key):
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             cwd=ROOT).stdout
    except OSError:
        return ""
    return out.splitlines()[0].strip() if out else ""


def run_record(args, nthreads, load_at_start):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = first_line(["git", "rev-parse", "HEAD"]) or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nthreads,
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": first_line([cache_value("CMAKE_CXX_COMPILER"),
                                "--version"]),
        "cmake_build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "loadavg_at_start": list(load_at_start),
    }


def newest(sources):
    """Latest modification time of the C++ files under @p sources."""
    latest = 0.0
    for rel in sources:
        path = ROOT / rel
        for f in [path] if path.is_file() else path.rglob("*"):
            if f.suffix in (".cpp", ".h"):
                latest = max(latest, f.stat().st_mtime)
    return latest


def refuse_unfit_build(record):
    if record["cmake_build_type"] not in OPTIMIZED_BUILDS:
        die(f"build type {record['cmake_build_type']!r} is not optimized")
    for binary, sources in ((DRIVER, DRIVER_SOURCES),
                            (WORKER, WORKER_SOURCES)):
        if not binary.exists() or binary.stat().st_mtime < newest(sources):
            die(f"{binary} is older than its sources")


def driver(*args):
    proc = subprocess.run([str(DRIVER), *map(str, args)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"driver {args[0]} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for problem in result.get("problems", []):
        log("check failed: " + problem)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_at_start = os.getloadavg()
    check_checkout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    nthreads = threads()
    record = run_record(args, nthreads, load_at_start)
    refuse_unfit_build(record)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    inputs = [work / f"inputs{k}" for k in range(VARIANTS)]
    for k, path in enumerate(inputs):
        driver("gen", "--seed", args.seed, "--variant", k, "--dir", path)
    reference = BENCH_DIR / "reference"
    common = ["--workload", args.workload, "--threads", nthreads,
              "--worker", WORKER,
              "--reference", reference / f"{args.workload}.json"]
    attempted = failed = 0
    if args.trace:
        wanted = spec["per_layer"]
        out = driver("trace", *common, "--inputs", inputs[0],
                     "--work", work / "trace",
                     "--campaign-reference", reference / "campaign.json",
                     "--spans", RUNS / (work.name + ".spans.json"))
        values = out["metrics"]
        attempted, failed = out["attempted"], out["failed"]
        samples = [values]
    else:
        wanted = spec["end_to_end"]
        cache = work / "cache"
        # Variants reorder the same jobs, so one warm cache serves all.
        warm = driver("warm", *common, "--inputs", inputs[0],
                      "--cache", cache, "--work", work / "warm")
        attempted, failed = warm["attempted"], warm["failed"]
        samples = []
        start = time.monotonic()
        while (not samples or len(samples) % VARIANTS or
               time.monotonic() - start < args.seconds):
            pass_dir = work / f"pass{len(samples)}"
            sample = driver("pass", *common,
                            "--inputs", inputs[len(samples) % VARIANTS],
                            "--cache", cache, "--work", pass_dir)
            shutil.rmtree(pass_dir)
            attempted += sample["attempted"]
            failed += sample["failed"]
            samples.append(sample)
        values = {m["name"]: statistics.median(s[m["name"]] for s in samples)
                  for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("driver did not report " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    (RUNS / (work.name + ".json")).write_text(json.dumps(
        {"record": record, "samples": samples}, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
