"""Benchmark entry point for monodromy-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up time is measured on fresh worker
processes that import the package and generate the workload's inputs;
the median of SETUP_RUNS is reported.  A further fresh worker runs the
workload for S seconds (see worker.py).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0 and the per-layer metrics with --trace 1, each named as in
BENCHMARK.json with its unit.
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
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_time(args, env) -> float:
    """Seconds from spawning a fresh worker to its `ready` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up worker did not exit")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up worker failed ({proc.returncode}): {err.strip()}")
    return elapsed


def run_worker(args, env) -> dict:
    try:
        proc = subprocess.run(
            worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="monodromy-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "monodromy_lab" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/monodromy_lab "
              "is missing", file=sys.stderr)
        return 2
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    env = worker_env()
    try:
        setups = [] if args.trace else [setup_time(args, env) for _ in range(SETUP_RUNS)]
        record = run_worker(args, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        wanted = bench["per_layer"]
        values = record["layers"]
    else:
        wanted = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": record["wall_s"],
            "cpu_s": record["cpu_s"],
            "peak_rss_mib": record["peak_rss_mib"],
            "certified_ratio": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    print("env " + json.dumps(record["env"]))
    print(f"workload {args.workload} seed {args.seed}: {record['passes']} passes, "
          f"{attempted} invocations attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4g})")
    for failure in record["failures"]:
        print(f"  FAILED {failure['invocation']}: {'; '.join(failure['problems'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
