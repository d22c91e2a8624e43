"""Interchange formats: matrices as JSON, sweep tables as CSV, and run
manifests.

Floats are written with 17 significant digits so every IEEE-754 double
round-trips exactly; CSV uses comma separators, a header row, and LF line
endings regardless of platform.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    return format(float(x), ".17g")


def matrix_to_json_text(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=float)
    rows = ",\n    ".join(
        "[" + ", ".join(fmt(v) for v in row) + "]" for row in mat
    )
    return '{\n  "dim": %d,\n  "rows": [\n    %s\n  ]\n}\n' % (mat.shape[0], rows)


def finite_number(val) -> bool:
    """A JSON number that is a finite double: not a bool, NaN or infinity,
    nor an integer too large to convert to a float."""
    return type(val) in (int, float) and abs(val) <= sys.float_info.max


class MatrixFileError(ValueError):
    """A matrix file that cannot be read, or is not an object with a positive
    even integer dim and a dim x dim array of finite numbers in rows."""


def matrix_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"matrix file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix file must be a JSON object with keys "
                              "'dim' and 'rows'")
    unknown = set(doc) - {"dim", "rows"}
    if unknown:
        raise MatrixFileError(f"unknown matrix-file keys: {sorted(unknown)}")
    dim, rows = doc.get("dim"), doc.get("rows")
    if type(dim) is not int or dim <= 0 or dim % 2:
        raise MatrixFileError(f"matrix dim must be a positive even integer, got {dim!r}")
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and len({len(r) for r in rows} | {len(rows)}) == 1):
        raise MatrixFileError("matrix rows must form a square array")
    if len(rows) != dim:
        raise MatrixFileError(f"dim field {dim} does not match rows {len(rows)}")
    if not all(finite_number(v) for r in rows for v in r):
        raise MatrixFileError("matrix entries must be finite numbers")
    return np.array(rows, dtype=float)


def write_matrix(path, mat) -> None:
    Path(path).write_text(matrix_to_json_text(mat))


def read_matrix(path) -> np.ndarray:
    try:
        return matrix_from_json(Path(path).read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise MatrixFileError(f"matrix file {path} cannot be read: {exc.strerror}")


def write_csv(path, header, rows) -> None:
    """Comma-separated table with LF endings and 17-significant-digit
    floats; ints and strings pass through unchanged."""

    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return str(bool(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return fmt(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(outdir, command: str, config: dict, outputs,
                   started: float) -> Path:
    import scipy

    manifest = {
        "command": command,
        "config_sha256": config_hash(config),
        "versions": {
            "monodromy_lab": _package_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.time() - started,
        "outputs": [str(p) for p in outputs],
    }
    path = Path(outdir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


@functools.cache
def _package_version() -> str:
    """Looked up once per process: outside an install the lookup scans
    every distribution on sys.path before it falls back to __version__."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("monodromy-lab")
    except PackageNotFoundError:  # running from a source tree
        from . import __version__

        return __version__
