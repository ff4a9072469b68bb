"""Benchmark entry point: run one workload (or all four) and report metrics.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in a child process (workload.py) with OPENBLAS, OMP and
MKL pinned to one thread. With --trace 0 the set-up is repeated in
SETUP_REPEATS processes, the last of which also runs the timed loop, and
set-up time is their median. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A fuller record
(environment, set-up samples, per-case census, failures, per-layer self
time) goes to perfbench/out/results/. The run fails, printing no result,
when the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "out" / "results"
# Names only: this process imports neither numpy nor the program.
WORKLOADS = ("solve_sweep", "field_grid", "oracle_check", "cli_run")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 160
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    env = dict(os.environ, **BLAS_PINS, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: workload process exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        setups = [child(workload, seed, seconds, trace, True)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    record = child(workload, seed, seconds, trace, False)
    if not trace:
        setups.append(record["setup_s"])
        record["setup_samples_s"] = setups
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
    record.update(workload=workload, seconds=seconds, trace=trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_table(record: dict) -> None:
    print(f"{record['workload']}: {record['attempted']} ops, {record['failed']} failed",
          file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for line in record.get("failures", []):
        print(f"  failure: {line}", file=sys.stderr)


def summary(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "elastinc" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'elastinc'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
    if args.workload == "all":
        print(json.dumps({r["workload"]: summary(r) for r in records}))
    else:
        print(json.dumps(summary(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
