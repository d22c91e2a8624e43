"""Command-line front door: experiment configs, sweeps, and result files.

Subcommands
-----------
classify    spectral classification report for a symplectic matrix file
contract    weight-conjugated contraction sweep of the hyperbolic model
ladder      eigenvalue ladders (exact, perturbed, or counting sweep)
geodesic    trajectory plus return-map classification of the warped metric
positivity  sampled escape-function positivity certificate

Exit codes: 0 pass, 1 numeric-assertion failure, 2 classification-ambiguous,
3 config or usage error.  Configs are JSON documents with strict unknown-key
rejection; positivity, the one command that draws random samples, requires a
non-negative --seed.  An --out that names a file, or lies under one, is
refused before any work.  Identical config and seed produce byte-identical
output in every file except manifest.json, which records the wall time.  No
command loads scipy.linalg: classify takes its few small matrix exponentials
in numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import geodesic as geo
from . import serialize
from .escape import verify_positivity
from .monodromy import contraction_sweep
from .quasimode import (
    LadderSizeError,
    exact_model_ladder,
    grid_capacity,
    perturbed_ladder,
    residual_certify,
)
from .symplectic import (
    ClassificationAmbiguousError,
    SymplecticError,
    build_quadratic_hamiltonian,
    classify_spectrum,
)
from .weyl import GridError, PhaseGrid

EXIT_PASS = 0
EXIT_NUMERIC = 1
EXIT_AMBIGUOUS = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


class NumericFailure(RuntimeError):
    pass


def _load_config(path, allowed: dict, required=()):
    """Read a JSON config, rejecting unknown keys and checking the type of
    every field; numbers, also inside lists, must be finite and not bool.
    `allowed` maps key -> type tuple."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing required config key: {key!r}")
    for key, val in doc.items():
        types = allowed[key]
        if not isinstance(val, types):
            raise ConfigError(
                f"config key {key!r} has type {type(val).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
        scalar = bool not in types and isinstance(val, (int, float))
        numbers = val if isinstance(val, list) else [val] if scalar else []
        if not all(map(_is_number, numbers)):
            raise ConfigError(f"config key {key!r} must hold finite numbers")
    return doc


def _is_number(val) -> bool:
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _grid_from(doc, default_l, default_n, hbar) -> PhaseGrid:
    doc = doc or {}
    unknown = set(doc) - {"L", "N"}
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    length, n = doc.get("L", default_l), doc.get("N", default_n)
    if not (_is_number(length) and type(n) is int):
        raise ConfigError(f"grid needs a number L and an integer N, got {doc}")
    try:
        return PhaseGrid(L=float(length), N=n, hbar=hbar)
    except GridError as exc:
        raise ConfigError(f"grid: {exc}")


def _check_out(path) -> None:
    """Refuse an --out that names a file or lies under one, before any work
    runs; the directory itself is made only once there is a result."""
    for part in (Path(path), *Path(path).parents):
        if part.is_dir():
            return
        if part.exists() or part.is_symlink():
            raise ConfigError(f"--out {path}: {part} exists and is not a directory")


def _positive(doc, key):
    if key in doc and not doc[key] > 0:
        raise ConfigError(f"config key {key!r} must be positive")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    started = time.time()
    # the ambiguous band (tol, 10 tol) must stay inside the unit disc
    tol = args.tol_unit
    if not (math.isfinite(tol) and tol > 0.0 and 10.0 * tol < 1.0):
        raise ConfigError(f"--tol-unit must satisfy 0 < tol and 10 * tol < 1, "
                          f"got {tol}")
    config = {"matrix_file": args.matrix_file, "tol_unit": tol}
    mat = serialize.read_matrix(args.matrix_file)
    cls = classify_spectrum(mat, tol_unit=tol)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "classification.json"
    out.write_text(cls.to_json() + "\n")
    serialize.write_manifest(outdir, "classify", config, [out], started)
    print(f"classify: wrote {out}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

CONTRACT_KEYS = {
    "lam": (int, float),
    "s": (int, float),
    "hbar_tilde": (int, float),
    "h_values": (list,),
    "grid": (dict,),
    "gap_grid": (dict,),
}


def cmd_contract(args) -> int:
    started = time.time()
    doc = _load_config(args.config, CONTRACT_KEYS, required=("h_values",))
    _positive(doc, "lam")
    if "s" in doc and abs(doc["s"]) > 0.5:
        raise ConfigError("weight strength |s| must be <= 1/2")
    hbar_tilde = float(doc.get("hbar_tilde", 0.2))
    if not 0.0 < hbar_tilde <= 1.0:
        raise ConfigError("hbar_tilde must satisfy 0 < hbar_tilde <= 1")
    h_values = [float(h) for h in doc["h_values"]]
    if not h_values or any(h <= 0 or h > hbar_tilde for h in h_values):
        raise ConfigError("h_values must be positive and at most hbar_tilde")
    s = float(doc.get("s", 0.3))
    grid = _grid_from(doc.get("grid"), 16.0, 512, hbar_tilde)
    gap_grid = _grid_from(doc.get("gap_grid"), 48.0, 512, hbar_tilde)
    try:
        r, defect, gaps = contraction_sweep(h_values, float(doc.get("lam", 1.0)),
                                            s, grid, gap_grid)
    except GridError as exc:  # a grid too small for the microlocal subspace
        raise ConfigError(f"grid: {exc}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "contraction.csv"
    serialize.write_csv(
        out,
        ["h", "hbar_tilde", "s", "r", "gap_value", "subspace_rank",
         "unitarity_defect"],
        [[h, hbar_tilde, s, r, gap, rank, defect]
         for h, (gap, rank) in zip(h_values, gaps)],
    )
    serialize.write_manifest(outdir, "contract", doc, [out], started)
    print(f"contract: wrote {out} (r = {r:.6f})")
    if r >= 1.0 and s != 0.0:
        raise NumericFailure(f"contraction failed: r = {r:.6f} >= 1")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

LADDER_KEYS = {
    "mode": (str,),
    "alpha": (int, float),
    "h": (int, float),
    "h_values": (list,),
    "m_exponent": (int, float),
    "c0": (int, float),
    "residuals": (bool,),
    "grid": (dict,),
    "order": (int,),
    "lambda0": (list,),
}
# what each mode reads besides mode, alpha, m_exponent and c0; any other
# key is refused, since the mode would ignore it.  One key is accepted but
# not read: perturbed's order, which the closed-form root has no use for;
# existing configs, the benchmark's among them, still pass it (checked >= 0)
LADDER_MODE_KEYS = {
    "exact": {"h", "residuals", "grid"},
    "perturbed": {"h", "lambda0", "order"},
    "counting": {"h_values"},
}


def cmd_ladder(args) -> int:
    started = time.time()
    doc = _load_config(args.config, LADDER_KEYS, required=("mode",))
    mode = doc["mode"]
    if mode not in LADDER_MODE_KEYS:
        raise ConfigError(f"unknown ladder mode {mode!r}")
    unread = set(doc) - {"mode", "alpha", "m_exponent", "c0"} - LADDER_MODE_KEYS[mode]
    if unread:
        raise ConfigError(f"ladder mode {mode!r} does not read {sorted(unread)}")
    for key in ("alpha", "h", "m_exponent", "c0"):
        _positive(doc, key)
    alpha = float(doc.get("alpha", 1.0))
    m_exp = float(doc.get("m_exponent", 2.0))
    c0 = float(doc.get("c0", 1.0))

    if mode == "counting":
        h_values = [float(h) for h in doc.get("h_values", [1e-2, 1e-3, 1e-4])]
        # the slope log(count)/log(1/h) needs 0 < h < 1
        if not h_values or not all(0.0 < h < 1.0 for h in h_values):
            raise ConfigError("h_values must be a non-empty list with every "
                              "h in (0, 1)")
        counts = [exact_model_ladder(alpha, h, m_exp, c0).count for h in h_values]
        slopes = [math.log(n) / math.log(1.0 / h) if n else float("nan")
                  for h, n in zip(h_values, counts)]
        rows = list(zip(h_values, counts, slopes))
        name, header = "counting.csv", ["h", "count", "slope"]
        summary = {"alpha": alpha, "m_exponent": m_exp, "c0": c0,
                   "h_values": h_values, "slopes": slopes}
    else:
        h = float(doc.get("h", 1e-3))
        if mode == "exact":
            # a malformed grid is refused whether or not residuals read it
            grid = _grid_from(doc.get("grid"), 1.0, 512, h)
            ladder = exact_model_ladder(alpha, h, m_exp, c0)
        else:
            lam0 = [float(v) for v in doc.get("lambda0", [alpha / 2.0])]
            if not lam0 or min(lam0) <= 0:
                raise ConfigError("lambda0 must be a non-empty list of "
                                  "positive numbers")
            if doc.get("order", 0) < 0:
                raise ConfigError(f"order must be >= 0, got {doc['order']}")
            ladder = perturbed_ladder(lam0, h, m_exp, c0)
        # Python scalars, so write_csv formats them as it formats any number
        ks, betas, zs, residuals = (c.tolist() for c in (
            ladder.k, ladder.beta, ladder.z, ladder.residual))
        if doc.get("residuals", False):
            top = int(ladder.beta[:, 0].max(initial=0))
            cap = grid_capacity(grid)
            if top > cap:  # refused before any entry is certified
                raise ConfigError(f"grid: Hermite index {top} exceeds grid capacity "
                                  f"{cap} (need h(2 beta + 1) <= L^2/4)")
            residuals = [residual_certify(k, beta[0], z, alpha, grid)
                         for k, beta, z in zip(ks, betas, zs)]
        name = f"ladder_{mode}.csv"
        header = (["k"] + [f"beta_{j + 1}" for j in range(ladder.beta.shape[1])]
                  + ["z", "residual"])
        rows = [[k, *beta, z, r] for k, beta, z, r in zip(ks, betas, zs, residuals)]
        summary = {"h": h, "m_exponent": m_exp, "c0": c0, "count": ladder.count,
                   "alpha": alpha}

    # create the output directory only once there is a result to write
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / name
    serialize.write_csv(out, header, rows)
    summary_path = outdir / "ladder_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    outputs = [out, summary_path]
    serialize.write_manifest(outdir, "ladder", doc, outputs, started)
    print(f"ladder[{mode}]: wrote {', '.join(str(o) for o in outputs)}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

GEODESIC_KEYS = {
    "orbit_z": (int, float),
    "initial_state": (list,),
    "t_final": (int, float),
    "step": (int, float),
    "stride": (int,),
    "classify_orbits": (bool,),
}


def cmd_geodesic(args) -> int:
    started = time.time()
    doc = _load_config(args.config, GEODESIC_KEYS)
    for key in ("t_final", "step", "stride"):
        _positive(doc, key)
    step = float(doc.get("step", 1e-4))
    stride = int(doc.get("stride", 100))
    if "initial_state" in doc and "orbit_z" in doc:
        raise ConfigError("give orbit_z or initial_state, not both: "
                          "initial_state sets the whole start")
    z0 = float(doc.get("orbit_z", 0.0))
    state0 = np.array([float(v) for v in
                       doc.get("initial_state", [0.0, 0.0, z0, 1.0, 0.0, 0.0])])
    if state0.shape != (6,):
        raise ConfigError("initial_state must have six components "
                          "(x, y, z, vx, vy, vz)")
    # checked before warp() is evaluated, which overflows far outside
    if max(abs(state0[1]), abs(state0[2])) > geo.DOMAIN_BOUND:
        raise ConfigError(f"start (y, z) = ({state0[1]}, {state0[2]}) lies outside "
                          f"the domain |y|, |z| <= {geo.DOMAIN_BOUND}")
    if "initial_state" not in doc:  # unit energy on the orbit at z0
        state0[3] = 1.0 / float(geo.WarpedMetric.warp(0.0, z0))
    with np.errstate(over="ignore"):
        energy0 = float(geo.WarpedMetric.energy(state0))
    if not math.isfinite(energy0):
        raise ConfigError(f"start has non-finite energy {energy0}")
    t_final = float(doc.get("t_final", 1.0))
    traj, _ = geo.integrate(state0, t_final, step=step, stride=stride)
    # classify before writing anything: a step the base orbits refuse
    # leaves no partial output behind
    classify = doc.get("classify_orbits", True)
    reports = ([geo.poincare_linearization(z0, step=step) for z0 in (0.0, 0.5, -0.5)]
               if classify else [])

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "trajectory.csv"
    serialize.write_csv(
        out,
        ["t", "x", "y", "z", "vx", "vy", "vz", "energy"],
        [[t] + list(row) + [e]
         for t, row, e in zip(traj.t, traj.states, traj.energy)],
    )
    outputs = [out]
    if classify:
        rep_path = outdir / "poincare.json"
        rep_path.write_text(
            "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"
        )
        outputs.append(rep_path)

    serialize.write_manifest(outdir, "geodesic", doc, outputs, started)
    print(f"geodesic: wrote {', '.join(str(o) for o in outputs)} "
          f"(energy drift {traj.energy_drift:.3e})")
    if traj.truncated:
        raise NumericFailure("trajectory left the domain (|y| or |z| > 10)")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

POSITIVITY_KEYS = {
    "rates": (list,),
    "matrix_file": (str,),
    "samples": (int,),
    "radius": (int, float),
}
# the certificate streams in fixed blocks, so only run time bounds this
MAX_SAMPLES = 10 ** 8


def cmd_positivity(args) -> int:
    started = time.time()
    doc = _load_config(args.config, POSITIVITY_KEYS)
    if args.seed is None:
        raise ConfigError("positivity sampling requires --seed")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _positive(doc, "samples")
    _positive(doc, "radius")
    samples = int(doc.get("samples", 100000))
    if samples > MAX_SAMPLES:
        raise ConfigError(f"samples = {samples} exceeds MAX_SAMPLES = {MAX_SAMPLES}")
    if ("rates" in doc) == ("matrix_file" in doc):
        raise ConfigError("provide exactly one of 'rates' or 'matrix_file'")
    if "rates" in doc:
        rates = [float(v) for v in doc["rates"]]
        if not rates or min(rates) <= 0:
            raise ConfigError("rates must be a non-empty list of positive "
                              "numbers")
        gen = np.diag(rates)
    else:
        mat = serialize.read_matrix(doc["matrix_file"])
        gen = build_quadratic_hamiltonian(classify_spectrum(mat))
    rng = np.random.default_rng(args.seed)
    report = verify_positivity(gen, samples=samples,
                               radius=float(doc.get("radius", 10.0)), rng=rng)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / "positivity.json"
    out.write_text(report.to_json() + "\n")
    serialize.write_manifest(outdir, "positivity", doc, [out], started)
    print(f"positivity: wrote {out} (min_ratio = {report.min_ratio:.6g})")
    if report.min_ratio <= 0.0:
        raise NumericFailure(
            f"positivity failed: min_ratio = {report.min_ratio:.6g} at "
            f"{report.argmin_point}"
        )
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="monodromy-lab",
        description="numerical laboratory for monodromy contraction, "
                    "quasimode ladders, and the warped-metric geodesic example",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a symplectic matrix")
    p_classify.add_argument("matrix_file", help="JSON matrix file")
    p_classify.add_argument("--tol-unit", type=float, default=1e-6,
                            dest="tol_unit")
    p_classify.add_argument("--out", default="out", help="output directory")
    p_classify.set_defaults(func=cmd_classify)

    for name, func in (("contract", cmd_contract), ("ladder", cmd_ladder),
                       ("geodesic", cmd_geodesic), ("positivity", cmd_positivity)):
        p = sub.add_parser(name)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", required=True, help="JSON config path")
        if name == "positivity":
            p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the ambiguous code
        # here; --help exits 0 and stays as it is
        if exc.code in (0, None):
            raise
        return EXIT_CONFIG
    try:
        _check_out(args.out)
        return args.func(args)
    except (ConfigError, geo.StepLimitError, LadderSizeError,
            serialize.MatrixFileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ClassificationAmbiguousError as exc:
        print(f"classification ambiguous: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SymplecticError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
