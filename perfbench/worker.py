"""One benchmark workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Run from the repository root with `src` on PYTHONPATH; `run.py` does both.
BLAS and OpenMP pools are pinned to one thread before numpy is imported,
and the run is refused if the pin did not take effect.

Set-up imports the package and generates the workload's inputs.  With
--setup-only the worker prints `ready` once set-up is done and exits.
Otherwise it runs passes of the workload (every invocation once, in
process, through `monodromy_lab.cli.main`) until S seconds are used,
checks every invocation with its oracle, and prints one JSON line:
per-pass medians of wall and CPU time with tracing off, or, with
--trace 1, per-layer metrics from traced passes, the tracing overhead and
the weyl scaling probe.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import monodromy_lab
from monodromy_lab import cli

import tracing
import workloads

PINNED_THREADS = 1
WORK_ROOT = Path(".bench_out")
PROBE_SIZES = (256, 512, 1024)


class PinError(RuntimeError):
    pass


def blas_pools() -> list:
    """(library, build string, threads in effect) for every OpenBLAS loaded
    into this process, found through the process's memory map."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and threads is None:
                    get_threads.restype = ctypes.c_int
                    threads = get_threads()
                if get_config is not None and config is None:
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode()
        pools.append({"library": Path(path).name, "build": config,
                      "threads": threads})
    return pools


def check_pinned() -> list:
    pools = blas_pools()
    if not pools:
        raise PinError("no OpenBLAS library is loaded; the BLAS thread count "
                       "cannot be verified")
    bad = [p for p in pools if p["threads"] != PINNED_THREADS]
    if bad:
        raise PinError(f"BLAS pools not pinned to {PINNED_THREADS} thread: {bad}")
    return pools


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, pools: list) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": sorted({p["threads"] for p in pools}),
        "blas": pools,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "monodromy_lab": monodromy_lab.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_pass(invocations, tracer=None) -> dict:
    """Every invocation once; wall and CPU time cover the CLI calls only,
    not the oracles."""
    wall = cpu = 0.0
    failures = []
    for inv in invocations:
        sink = io.StringIO()
        span = tracer.span(tracing.CLI_SPAN) if tracer else contextlib.nullcontext()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
                code = cli.main(inv.argv)
        except Exception:  # an uncaught error is a failed invocation
            code = None
            sink.write(traceback.format_exc())
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if code != cli.EXIT_PASS:
            problems = [f"exit code {code}: {sink.getvalue().strip()[-500:]}"]
        else:
            try:
                problems = inv.check(inv.outdir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable result: {exc!r}"]
        if problems:
            failures.append({"invocation": inv.name, "problems": problems[:5]})
    return {"wall": wall, "cpu": cpu, "attempted": len(invocations),
            "failures": failures}


def weyl_probe() -> dict:
    """Each weyl layer once at N = 256, 512, 1024 on the contract-sweep
    symbols: stretch generator x xi at h = hbar_tilde = 0.2, its time-one
    exponential, and the default microlocal cutoff and its range."""
    from monodromy_lab import weyl

    out = {}
    for n in PROBE_SIZES:
        grid = weyl.PhaseGrid(L=16.0, N=n, hbar=0.2)

        def timed(fn, call):
            t0 = time.perf_counter()
            result = call()
            out[f"weyl.{fn}.n{n}_s"] = time.perf_counter() - t0
            return result

        op = timed("quantize", lambda: weyl.quantize(lambda x, xi: x * xi, grid))
        herm = 0.5 * (op.matrix + op.matrix.conj().T)
        timed("op_exponential", lambda: weyl.op_exponential(herm, -1.0j / 0.2))
        cutoff = timed("microlocal_cutoff", lambda: weyl.microlocal_cutoff(grid))
        timed("cutoff_range", lambda: weyl.cutoff_range(cutoff))
    return out


def measure(invocations, seconds: float, trace: bool, spans_path: Path) -> dict:
    """Passes until `seconds` are used; a traced run alternates untraced
    and traced passes after the probe and needs one of each."""
    deadline = time.perf_counter() + seconds
    probe = weyl_probe() if trace else {}
    plain, traced, layer_runs, spans = [], [], [], []
    passes_started = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced.append(run_pass(invocations, tracer))
            layer_runs.append(tracer.summary())
            spans.append([vars(s) for s in tracer.spans])
        else:
            plain.append(run_pass(invocations))
        now = time.perf_counter()
        per_pass = (now - passes_started) / (len(plain) + len(traced))
        enough = not trace or len(traced) >= 1
        if enough and now + per_pass > deadline:
            break
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    record = {"attempted": attempted, "failed": len(failures),
              "failures": failures[:20], "passes": len(runs)}
    if trace:
        names = set().union(*layer_runs)
        layers = {n: statistics.median(run.get(n, 0.0) for run in layer_runs)
                  for n in names}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced)
            - statistics.median(r["wall"] for r in plain))
        layers.update(probe)
        record["layers"] = layers
        spans_path.write_text(json.dumps(spans))
    else:
        record["wall_s"] = statistics.median(r["wall"] for r in plain)
        record["cpu_s"] = statistics.median(r["cpu"] for r in plain)
        record["pass_wall_s"] = [r["wall"] for r in plain]
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        pools = check_pinned()
    except PinError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 3
    workdir = WORK_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        invocations = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = measure(invocations, args.seconds, bool(args.trace),
                         WORK_ROOT / f"spans-{tag}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = environment(args.seed, pools)
    (WORK_ROOT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
