"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Every oracle accepts the package's real output and rejects a corrupted
copy of it; a traced run of every workload reports the exact per-pass
call counts, which fail if a binding site is missed; the runner refuses
to run without the package or with unpinned BLAS threads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads
from monodromy_lab import cli

# exact per-pass counts at the commit that defined the benchmark
EXACT_COUNTS = {
    "contract-sweep": {"weyl.quantize.calls": 3, "weyl.cutoff_range.calls": 6,
                       "weyl.op_exponential.calls": 4},
    "ladder-certify": {"weyl.quantize.calls": 174},
    "geodesic-orbits": {"geodesic.rk4_steps": 50_000,
                        "geodesic.tangent_steps": 27_500},
}
MIN_COUNTS = {"normal-forms": {"symplectic.classify_spectrum.calls": 240}}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One real pass of every workload: name -> {invocation: Invocation}."""
    out = {}
    for name in workloads.NAMES:
        invocations = workloads.build(name, 7, tmp_path_factory.mktemp(name))
        for inv in invocations:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(inv.argv) == cli.EXIT_PASS, inv.name
        out[name] = {inv.name: inv for inv in invocations}
    return out


def corrupted(inv, tmp_path, edit):
    """Check a copy of the invocation's output after `edit(copy_dir)`."""
    copy = tmp_path / inv.outdir.name
    shutil.copytree(inv.outdir, copy)
    edit(copy)
    return inv.check(copy)


def edit_csv(path, fn):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows = fn(rows) or rows
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, fn):
    doc = json.loads(Path(path).read_text())
    doc = fn(doc) or doc
    Path(path).write_text(json.dumps(doc))


def test_oracles_accept_real_results(results):
    for name, invs in results.items():
        for inv in invs.values():
            assert inv.check(inv.outdir) == [], (name, inv.name)


# --- contract-sweep ---------------------------------------------------------

def test_contract_rejects_r_off_seed_value(results, tmp_path):
    def bump(rows):
        rows[2]["r"] = repr(float(rows[2]["r"]) * (1.0 + 1e-8))
    inv = results["contract-sweep"]["contract"]
    assert corrupted(inv, tmp_path, lambda d: edit_csv(d / "contraction.csv", bump))


def test_contract_rejects_unitarity_defect(results, tmp_path):
    def bump(rows):
        rows[0]["unitarity_defect"] = "1e-9"
    inv = results["contract-sweep"]["contract"]
    assert corrupted(inv, tmp_path, lambda d: edit_csv(d / "contraction.csv", bump))


def test_contract_reads_columns_by_name(results, tmp_path):
    def add_column(rows):
        return [{"gap_value": "0.5", **row} for row in rows]
    inv = results["contract-sweep"]["contract"]
    assert corrupted(inv, tmp_path,
                     lambda d: edit_csv(d / "contraction.csv", add_column)) == []


# --- ladder-certify ---------------------------------------------------------

def test_ladder_rejects_detuned_z(results, tmp_path):
    def detune(rows):
        rows[5]["z"] = repr(float(rows[5]["z"]) + 1e-6)
    inv = results["ladder-certify"]["ladder-exact"]
    assert corrupted(inv, tmp_path, lambda d: edit_csv(d / "ladder_exact.csv", detune))


def test_ladder_rejects_large_residual(results, tmp_path):
    def bump(rows):
        rows[0]["residual"] = "1e-7"
    inv = results["ladder-certify"]["ladder-exact"]
    assert corrupted(inv, tmp_path, lambda d: edit_csv(d / "ladder_exact.csv", bump))


def test_ladder_rejects_missing_entry(results, tmp_path):
    def drop(d):
        edit_csv(d / "ladder_exact.csv", lambda rows: rows[1:])
        edit_json(d / "ladder_summary.json",
                  lambda doc: {**doc, "count": doc["count"] - 1})
    inv = results["ladder-certify"]["ladder-exact"]
    assert corrupted(inv, tmp_path, drop)


def test_ladder_rejects_summary_count_mismatch(results, tmp_path):
    inv = results["ladder-certify"]["ladder-perturbed"]
    assert corrupted(inv, tmp_path, lambda d: edit_json(
        d / "ladder_summary.json", lambda doc: {**doc, "count": doc["count"] + 1}))


def test_perturbed_rejects_detuned_z(results, tmp_path):
    def detune(rows):
        rows[-1]["z"] = repr(float(rows[-1]["z"]) - 1e-6)
    inv = results["ladder-certify"]["ladder-perturbed"]
    assert corrupted(inv, tmp_path,
                     lambda d: edit_csv(d / "ladder_perturbed.csv", detune))


def test_counting_rejects_wrong_count(results, tmp_path):
    def bump(rows):
        rows[1]["count"] = str(int(rows[1]["count"]) + 1)
    inv = results["ladder-certify"]["ladder-counting"]
    assert corrupted(inv, tmp_path, lambda d: edit_csv(d / "counting.csv", bump))


def test_perturbed_window_follows_beta_cap():
    # the enumerated lattice stops at the stage-zero beta cap; the full
    # k-window holds more points with negative k and large beta_1
    capped = workloads.perturbed_window([0.5, 0.7], 1e-3, 2.0, 0.5)
    assert len(capped) == 4646
    assert max(key[1] for key in capped) == 32


# --- geodesic-orbits --------------------------------------------------------

def test_geodesic_rejects_wrong_verdict(results, tmp_path):
    def flip(doc):
        doc[0]["verdict"] = "elliptic"
    inv = results["geodesic-orbits"]["geodesic"]
    assert corrupted(inv, tmp_path, lambda d: edit_json(d / "poincare.json", flip))


def test_geodesic_rejects_off_multiplier(results, tmp_path):
    def scale(doc):
        re, im = doc[1]["multipliers"][0]
        doc[1]["multipliers"][0] = [re * (1.0 + 1e-8), im]
    inv = results["geodesic-orbits"]["geodesic"]
    assert corrupted(inv, tmp_path, lambda d: edit_json(d / "poincare.json", scale))


def test_geodesic_rejects_energy_drift(results, tmp_path):
    def drift(rows):
        rows[-1]["energy"] = repr(float(rows[-1]["energy"]) + 1e-8)
    inv = results["geodesic-orbits"]["geodesic"]
    assert corrupted(inv, tmp_path, lambda d: edit_csv(d / "trajectory.csv", drift))


def test_geodesic_rejects_truncated_trajectory(results, tmp_path):
    inv = results["geodesic-orbits"]["geodesic"]
    assert corrupted(inv, tmp_path,
                     lambda d: edit_csv(d / "trajectory.csv", lambda rows: rows[:-50]))


def test_analytic_multipliers_match_closed_form():
    import cmath

    got = workloads.analytic_multipliers(0.5)
    assert abs(got[0] - cmath.exp(0.875)) < 1e-15
    assert abs(got[2] - cmath.exp(3.5 ** 0.5)) < 1e-14
    elliptic = workloads.analytic_multipliers(0.0)
    assert abs(abs(elliptic[2]) - 1.0) < 1e-15


# --- normal-forms -----------------------------------------------------------

def test_classification_rejects_reconstruction_error(results, tmp_path):
    inv = results["normal-forms"]["classify-011"]
    assert corrupted(inv, tmp_path, lambda d: edit_json(
        d / "classification.json",
        lambda doc: {**doc, "reconstruction_error": 1e-7}))


def test_classification_rejects_wrong_eigenvalue(results, tmp_path):
    def shift(doc):
        re, im = doc["blocks"][0]["mu"]
        doc["blocks"][0]["mu"] = [re + 1e-6, im]
    inv = results["normal-forms"]["classify-005"]
    assert corrupted(inv, tmp_path,
                     lambda d: edit_json(d / "classification.json", shift))


def test_classification_rejects_missing_block(results, tmp_path):
    def drop(doc):
        doc["blocks"] = doc["blocks"][1:]
    inv = results["normal-forms"]["classify-005"]
    assert corrupted(inv, tmp_path,
                     lambda d: edit_json(d / "classification.json", drop))


def test_positivity_rejects_low_ratio(results, tmp_path):
    def lower(doc):
        doc["min_ratio"] = 0.5 - 1e-9
    inv = results["normal-forms"]["positivity-0"]
    assert corrupted(inv, tmp_path, lambda d: edit_json(d / "positivity.json", lower))


def test_positivity_rejects_inconsistent_witness(results, tmp_path):
    def move(doc):
        doc["argmin_point"][0][0] += 0.1
    inv = results["normal-forms"]["positivity-1"]
    assert corrupted(inv, tmp_path, lambda d: edit_json(d / "positivity.json", move))


# --- runner -----------------------------------------------------------------

def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_exact_counts(name):
    proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for key, want in EXACT_COUNTS.get(name, {}).items():
        assert metrics[key] == want, key
    for key, least in MIN_COUNTS.get(name, {}).items():
        assert metrics[key] >= least, key
    assert "trace.overhead_s" in metrics


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "normal-forms", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores to unpin")
def test_worker_refuses_unpinned_blas():
    code = ("import os, sys; os.environ['OPENBLAS_NUM_THREADS'] = '2'; "
            "import numpy, scipy.linalg; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import worker; sys.exit(worker.main(['--workload', 'contract-sweep', "
            "'--seed', '1', '--setup-only']))")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "refusing to run" in proc.stderr
    assert "ready" not in proc.stdout
