"""Benchmark workloads: generated inputs, CLI invocations and oracles.

`build(name, seed, workdir)` writes a workload's input files under
`workdir` and returns its invocations.  One pass of a workload runs every
invocation once through `monodromy_lab.cli.main`.  Each invocation carries
an oracle that reads the files the command wrote, by CSV header name and
JSON key, and returns a list of problems: empty means the result is
certified.  Oracles compare floats by tolerance and derive their expected
values independently of the package (closed forms, integer enumeration,
numpy eigenvalues).
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Invocation:
    name: str
    argv: list
    outdir: Path
    check: Callable[[Path], list]  # outdir -> problems


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    return json.loads(Path(path).read_text())


def close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _write_config(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# contract-sweep
# ---------------------------------------------------------------------------

CONTRACT_H = [0.2, 0.1, 0.05, 0.02, 0.01]
CONTRACT_S = 0.3
# conjugated norm r on the default N=512 grids, measured when the benchmark
# was defined; r does not depend on h in the rescaled model
CONTRACT_R = 0.95058714553522383
CONTRACT_R_REL = 1e-9
UNITARITY_TOL = 1e-10


def check_contract(outdir: Path) -> list:
    rows = read_csv(outdir / "contraction.csv")
    problems = []
    hs = [float(r["h"]) for r in rows]
    if hs != CONTRACT_H:
        problems.append(f"h column {hs} != {CONTRACT_H}")
    for row in rows:
        r = float(row["r"])
        defect = float(row["unitarity_defect"])
        if not r < 1.0:
            problems.append(f"h={row['h']}: r = {r!r} is not a contraction")
        if not close(r, CONTRACT_R, CONTRACT_R_REL):
            problems.append(f"h={row['h']}: r = {r!r} differs from "
                            f"{CONTRACT_R!r} by more than {CONTRACT_R_REL:g} rel")
        if not defect <= UNITARITY_TOL:
            problems.append(f"h={row['h']}: unitarity defect {defect!r} "
                            f"> {UNITARITY_TOL:g}")
    return problems


def contract_sweep(seed: int, workdir: Path) -> list:
    cfg = _write_config(workdir, "contract",
                        {"h_values": CONTRACT_H, "s": CONTRACT_S})
    out = workdir / "contract"
    return [Invocation("contract", ["contract", "--config", cfg, "--out", str(out)],
                       out, check_contract)]


# ---------------------------------------------------------------------------
# ladder-certify
# ---------------------------------------------------------------------------

LADDER_ALPHA = 1.0
LADDER_H = 1e-3
LADDER_M = 2.0
LADDER_C0 = 0.5
PERTURBED_LAMBDA = [0.5, 0.7]
PERTURBED_ORDER = 3
COUNTING_H = [1e-2, 1e-3, 1e-4, 1e-5]
RESIDUAL_TOL = 1e-8
Z_ABS_TOL = 1e-14   # closed-form z against the CSV, |z| <= 0.016 here
WINDOW_SLACK = 1e-12


def k_limit(h: float, m: float, c0: float) -> int:
    """|k| <= c0 h^(1/m - 1) / pi: the documented integer k-window."""
    return math.floor(c0 * h ** (1.0 / m - 1.0) / math.pi)


def exact_window(alpha: float, h: float, m: float, c0: float) -> dict:
    """{(k, b): z} for every lattice point of the exact ladder, by brute
    force over a b-range large enough for any k in the window."""
    zmax = c0 * h ** (1.0 / m)
    kmax = k_limit(h, m, c0)
    # |z| <= zmax and k >= -kmax force alpha (b + 1/2) <= zmax/h + 2 pi kmax
    b_max = math.ceil((zmax / h + 2.0 * math.pi * kmax) / alpha) + 1
    points = {}
    for k in range(-kmax, kmax + 1):
        for b in range(b_max + 1):
            z = h * (alpha * (b + 0.5) + 2.0 * math.pi * k)
            if abs(z) <= zmax * (1.0 + WINDOW_SLACK):
                points[(k, b)] = z
    return points


def perturbed_window(lams, h: float, m: float, c0: float) -> dict:
    """{(k, b_1, .., b_n): z} for the constant-rate perturbed ladder, whose
    root is z = (h sum lam_j (2 b_j + 1) + 2 pi k h) / 2 at every stage.

    The beta lattice follows `perturbed_ladder`'s stage-zero cap
    b_j <= floor((2 zmax / (h min lam) - 1) / 2) + 1; window points with
    negative k beyond that cap are not enumerated by the package.
    """
    zmax = c0 * h ** (1.0 / m)
    kmax = k_limit(h, m, c0)
    b_cap = math.floor(max(0.0, (2.0 * zmax / (h * min(lams)) - 1.0) / 2.0)) + 1
    lattice = [()]
    for _ in lams:
        lattice = [beta + (b,) for beta in lattice for b in range(b_cap + 1)]
    points = {}
    for k in range(-kmax, kmax + 1):
        for beta in lattice:
            act = sum(lam * (2 * b + 1) for lam, b in zip(lams, beta))
            z = 0.5 * h * (act + 2.0 * math.pi * k)
            if abs(z) <= zmax * (1.0 + WINDOW_SLACK):
                points[(k,) + beta] = z
    return points


def check_ladder_table(outdir: Path, mode: str, expected: dict) -> list:
    rows = read_csv(outdir / f"ladder_{mode}.csv")
    summary = read_json(outdir / "ladder_summary.json")
    problems = []
    if summary["count"] != len(rows):
        problems.append(f"summary count {summary['count']} != {len(rows)} CSV rows")
    beta_cols = sorted(c for c in rows[0] if c.startswith("beta_")) if rows else []
    seen = set()
    for row in rows:
        key = (int(row["k"]),) + tuple(int(row[c]) for c in beta_cols)
        z = float(row["z"])
        resid = float(row["residual"])
        seen.add(key)
        if key not in expected:
            problems.append(f"{mode}: entry {key} is outside the window")
        elif abs(z - expected[key]) > Z_ABS_TOL:
            problems.append(f"{mode}: entry {key} has z = {z!r}, "
                            f"closed form {expected[key]!r}")
        if not resid <= RESIDUAL_TOL:
            problems.append(f"{mode}: entry {key} residual {resid!r} > {RESIDUAL_TOL:g}")
    if len(seen) != len(rows):
        problems.append(f"{mode}: {len(rows) - len(seen)} duplicate entries")
    if len(rows) != len(expected):
        problems.append(f"{mode}: {len(rows)} entries, enumeration gives "
                        f"{len(expected)}")
    return problems


def check_counting(outdir: Path, expected: dict) -> list:
    rows = read_csv(outdir / "counting.csv")
    problems = []
    hs = [float(r["h"]) for r in rows]
    if hs != list(expected):
        problems.append(f"counting h column {hs} != {list(expected)}")
    for row in rows:
        h, count, slope = float(row["h"]), int(row["count"]), float(row["slope"])
        want = expected.get(h)
        if count != want:
            problems.append(f"counting h={h:g}: count {count}, enumeration {want}")
        if count and not close(slope, math.log(count) / math.log(1.0 / h), 1e-12):
            problems.append(f"counting h={h:g}: slope {slope!r} != log N / log(1/h)")
    return problems


def ladder_certify(seed: int, workdir: Path) -> list:
    common = {"alpha": LADDER_ALPHA, "m_exponent": LADDER_M, "c0": LADDER_C0}
    exact = exact_window(LADDER_ALPHA, LADDER_H, LADDER_M, LADDER_C0)
    perturbed = perturbed_window(PERTURBED_LAMBDA, LADDER_H, LADDER_M, LADDER_C0)
    counts = {h: len(exact_window(LADDER_ALPHA, h, LADDER_M, LADDER_C0))
              for h in COUNTING_H}
    specs = [
        ("exact", {**common, "mode": "exact", "h": LADDER_H, "residuals": True},
         lambda out: check_ladder_table(out, "exact", exact)),
        ("perturbed", {**common, "mode": "perturbed", "h": LADDER_H,
                       "lambda0": PERTURBED_LAMBDA, "order": PERTURBED_ORDER},
         lambda out: check_ladder_table(out, "perturbed", perturbed)),
        ("counting", {**common, "mode": "counting", "h_values": COUNTING_H},
         lambda out: check_counting(out, counts)),
    ]
    invocations = []
    for name, doc, check in specs:
        cfg = _write_config(workdir, f"ladder-{name}", doc)
        out = workdir / f"ladder-{name}"
        invocations.append(Invocation(
            f"ladder-{name}", ["ladder", "--config", cfg, "--out", str(out)],
            out, check))
    return invocations


# ---------------------------------------------------------------------------
# geodesic-orbits
# ---------------------------------------------------------------------------

GEODESIC_STATE = [0.0, 0.01, 0.05, 1.0, 0.0, 0.0]
GEODESIC_T = 5.0
GEODESIC_STEP = 1e-4
GEODESIC_STRIDE = 100
MULTIPLIER_REL = 1e-9
ENERGY_DRIFT_TOL = 1e-9
# base orbit z0 -> verdict of its transverse return map
ORBIT_VERDICTS = {0.0: "semi-hyperbolic", 0.5: "hyperbolic", -0.5: "hyperbolic"}


def analytic_multipliers(z0: float) -> list:
    """Floquet multipliers of the closed orbit at (y, z) = (0, z0): period
    T = u(z0); the y-mode gives e^(+-T), the z-mode e^(+-T sqrt(u''/u))."""
    u = 2.0 * z0 ** 4 - z0 ** 2 + 1.0
    u2 = 24.0 * z0 ** 2 - 2.0
    period = u
    rate_z = cmath.sqrt(u2 / u)
    return [cmath.exp(period), cmath.exp(-period),
            cmath.exp(period * rate_z), cmath.exp(-period * rate_z)]


def check_geodesic(outdir: Path) -> list:
    problems = []
    traj = read_csv(outdir / "trajectory.csv")
    want_rows = round(GEODESIC_T / GEODESIC_STEP) // GEODESIC_STRIDE + 1
    if len(traj) != want_rows:
        problems.append(f"trajectory has {len(traj)} rows, expected {want_rows} "
                        "(truncated?)")
    if not close(float(traj[-1]["t"]), GEODESIC_T, 1e-12):
        problems.append(f"trajectory ends at t = {traj[-1]['t']}, not {GEODESIC_T}")
    energy = [float(r["energy"]) for r in traj]
    drift = max(abs(e - energy[0]) for e in energy)
    if not drift <= ENERGY_DRIFT_TOL:
        problems.append(f"energy drift {drift!r} > {ENERGY_DRIFT_TOL:g}")
    reports = read_json(outdir / "poincare.json")
    if sorted(r["base_z"] for r in reports) != sorted(ORBIT_VERDICTS):
        problems.append(f"orbits {[r['base_z'] for r in reports]} != "
                        f"{list(ORBIT_VERDICTS)}")
    for rep in reports:
        z0 = rep["base_z"]
        if rep["verdict"] != ORBIT_VERDICTS.get(z0):
            problems.append(f"orbit z0={z0}: verdict {rep['verdict']!r}")
        got = [complex(re, im) for re, im in rep["multipliers"]]
        for want in analytic_multipliers(z0):
            best = min(got, key=lambda g: abs(g - want), default=None)
            if best is None or abs(best - want) > MULTIPLIER_REL * abs(want):
                problems.append(f"orbit z0={z0}: no multiplier within "
                                f"{MULTIPLIER_REL:g} rel of {want:.15g}")
            else:
                got.remove(best)
    return problems


def geodesic_orbits(seed: int, workdir: Path) -> list:
    cfg = _write_config(workdir, "geodesic", {
        "initial_state": GEODESIC_STATE, "t_final": GEODESIC_T,
        "step": GEODESIC_STEP, "stride": GEODESIC_STRIDE,
        "classify_orbits": True})
    out = workdir / "geodesic"
    return [Invocation("geodesic", ["geodesic", "--config", cfg, "--out", str(out)],
                       out, check_geodesic)]


# ---------------------------------------------------------------------------
# normal-forms
# ---------------------------------------------------------------------------

CLASSIFY_COUNT = 240
CLASSIFY_DIMS = (2, 4, 6, 8, 10, 12)
RECONSTRUCTION_TOL = 1e-8
EIGENVALUE_REL = 1e-8
POSITIVITY_RATES = ([1.0, 2.0, 0.5], [0.3, 3.0], [1.0])
POSITIVITY_SAMPLES = 1_000_000
POSITIVITY_SLACK = 1e-12
BLOCK_WIDTH = {"complex-hyperbolic": 4, "real-positive": 2,
               "real-negative": 2, "elliptic": 2}


def check_classification(outdir: Path, matrix) -> list:
    import numpy as np

    rep = read_json(outdir / "classification.json")
    problems = []
    dim = matrix.shape[0]
    err = rep["reconstruction_error"]
    if not err <= RECONSTRUCTION_TOL:
        problems.append(f"reconstruction error {err!r} > {RECONSTRUCTION_TOL:g}")
    width = sum(BLOCK_WIDTH[b["kind"]] * b["multiplicity"] for b in rep["blocks"])
    if rep["dim"] != dim or width != dim:
        problems.append(f"blocks span {width} of dim {dim} (reported {rep['dim']})")
    evals = np.linalg.eigvals(matrix)
    for b in rep["blocks"]:
        mu = complex(*b["mu"])
        if np.abs(evals - mu).min() > EIGENVALUE_REL * max(1.0, abs(mu)):
            problems.append(f"block eigenvalue {mu:.15g} is not in the spectrum")
    return problems


def check_positivity(outdir: Path, rates) -> list:
    rep = read_json(outdir / "positivity.json")
    problems = []
    floor = min(rates) - POSITIVITY_SLACK
    if not rep["min_ratio"] >= floor:
        problems.append(f"positivity rates {rates}: min_ratio "
                        f"{rep['min_ratio']!r} < {floor!r}")
    # Re(H_q G) / envelope at the reported witness, recomputed by hand
    x, xi = rep["argmin_point"]
    nx, nxi = sum(v * v for v in x), sum(v * v for v in xi)
    num = (sum(r * v * v for r, v in zip(rates, x)) / (1.0 + nx)
           + sum(r * v * v for r, v in zip(rates, xi)) / (1.0 + nxi))
    ratio = num / (nx / (1.0 + nx) + nxi / (1.0 + nxi))
    if not close(ratio, rep["min_ratio"], 1e-9):
        problems.append(f"positivity rates {rates}: witness ratio {ratio!r} "
                        f"!= min_ratio {rep['min_ratio']!r}")
    if rep["samples"] < POSITIVITY_SAMPLES:
        problems.append(f"positivity used {rep['samples']} < "
                        f"{POSITIVITY_SAMPLES} samples")
    return problems


def normal_forms(seed: int, workdir: Path) -> list:
    import numpy as np
    from monodromy_lab.serialize import write_matrix
    from monodromy_lab.symplectic import random_symplectic

    rng = np.random.default_rng(seed)
    invocations = []
    for i in range(CLASSIFY_COUNT):
        mat = random_symplectic(CLASSIFY_DIMS[i % len(CLASSIFY_DIMS)], rng).entries
        path = workdir / f"matrix-{i:03d}.json"
        write_matrix(path, mat)
        out = workdir / f"classify-{i:03d}"
        invocations.append(Invocation(
            f"classify-{i:03d}", ["classify", str(path), "--out", str(out)], out,
            lambda o, mat=mat: check_classification(o, mat)))
    seeds = rng.integers(0, 2 ** 31, size=len(POSITIVITY_RATES))
    for i, (rates, s) in enumerate(zip(POSITIVITY_RATES, seeds)):
        cfg = _write_config(workdir, f"positivity-{i}",
                            {"rates": rates, "samples": POSITIVITY_SAMPLES})
        out = workdir / f"positivity-{i}"
        invocations.append(Invocation(
            f"positivity-{i}", ["positivity", "--config", cfg, "--out", str(out),
                                "--seed", str(int(s))], out,
            lambda o, rates=rates: check_positivity(o, rates)))
    return invocations


BY_NAME = {
    "contract-sweep": contract_sweep,
    "ladder-certify": ladder_certify,
    "geodesic-orbits": geodesic_orbits,
    "normal-forms": normal_forms,
}
NAMES = tuple(BY_NAME)


def build(name: str, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    return BY_NAME[name](seed, workdir)
