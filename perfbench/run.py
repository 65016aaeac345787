#!/usr/bin/env python3
"""Run one psbench benchmark workload and print its result as one JSON line.

Usage, from the root of a psbench checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steps:
  1. build the benchmark package (perfbench/Cargo.toml) in release mode into
     $CARGO_TARGET_DIR (default .bench_build);
  2. generate the workload's inputs from the seed, in a process of its own,
     so input generation counts toward neither set-up time nor peak memory;
  3. run the measured process (with one malloc arena, on one CPU but for the
     traced run of fleet_1000), which repeats set-up and the timed phase for
     --seconds, checks its outputs and prints its metrics by name.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, each with the unit BENCHMARK.json
gives it. A traced run also leaves its spans in
perfbench/work/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("trace_outages", "fleet_1000", "serve_journaled")
# The measured process runs on one CPU, except in the traced run of
# fleet_1000, which times the harness pool at one worker per CPU. On one CPU,
# serve_journaled's lockstep round trips switch threads on that CPU instead
# of waking an idle vCPU, which on a shared host waits for the host's
# scheduler; the other workloads run on the CPU their calibration kernel ran
# on. fleet_1000 then runs one worker: with two, its epochs waited for the
# slower of two vCPUs, which one kernel on one CPU cannot see, and five runs
# spread 0.31 of their median.
UNPINNED_TRACED = ("fleet_1000",)
# One malloc arena for the measured process: with an arena per thread, the
# multi-threaded workloads' peak RSS depended on which thread freed what
# (fleet_1000 seed 1 read 77 MB in one run and 93 MB in another) and grew
# with every iteration.
RUN_ENV = {"MALLOC_ARENA_MAX": "1"}
BUILD_TIMEOUT_S = 840
# Input generation and the measured process together, after the build: a
# fixed margin for generation, the last iteration and the oracles, plus
# room for --seconds on a host running at a third of its usual speed.
RUN_MARGIN_S = 60
RUN_SCALE = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout:.0f} s: {' '.join(map(str, cmd))}")


def result_of(stdout, units, trace):
    """The measured process's result, with the units BENCHMARK.json gives."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1] if lines else "")
    except json.JSONDecodeError as e:
        fail(f"measured process printed no JSON result ({e})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = result["metrics"]
    unknown = sorted(set(got) - set(units))
    if unknown:
        fail(f"metrics not listed in BENCHMARK.json: {unknown}")
    # A layer the workload does not call reads 0; every end-to-end metric
    # must be measured.
    missing = sorted(set(units) - set(got))
    if missing and not trace:
        fail(f"end-to-end metrics not reported: {missing}")
    result["metrics"] = {
        name: {"value": got.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no psbench sources at {ROOT} (expected Cargo.toml and crates/)")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    table = spec["per_layer" if a.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    build = call(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with code {build.returncode}")
    exe = target / "release" / "psbench-perfbench"
    deadline = time.monotonic() + RUN_MARGIN_S + RUN_SCALE * a.seconds

    work_root = BENCH / "work"
    work = work_root / f"{a.workload}-{a.seed}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", str(work)]
    gen = call([exe, "gen", *common], deadline - time.monotonic(), stdout=sys.stderr)
    if gen.returncode != 0:
        fail(f"generating inputs failed with code {gen.returncode}")
    pin = None
    if not (a.trace and a.workload in UNPINNED_TRACED):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    run = call(
        [exe, "run", *common, "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--expected", str(BENCH / "expected.txt")],
        deadline - time.monotonic(), stdout=subprocess.PIPE, text=True,
        env={**os.environ, **RUN_ENV}, preexec_fn=pin,
    )
    if run.returncode != 0:
        fail(f"measured process failed with code {run.returncode}")
    result = result_of(run.stdout, units, a.trace == 1)

    spans = work / "spans.jsonl"
    if spans.is_file():
        spans.replace(work_root / f"spans-{a.workload}-{a.seed}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
