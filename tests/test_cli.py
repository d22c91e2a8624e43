import hashlib
import json
import math
import time

import numpy as np
import pytest

from monodromy_lab.cli import main
from monodromy_lab.serialize import (
    MatrixFileError,
    matrix_from_json,
    matrix_to_json_text,
    read_matrix,
    write_matrix,
)


def run(args):
    return main([str(a) for a in args])


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# matrix interchange
# ---------------------------------------------------------------------------

def test_matrix_roundtrip(tmp_path):
    mat = np.array([[math.e, 0.0], [0.0, 1.0 / math.e]])
    text = matrix_to_json_text(mat)
    back = matrix_from_json(text)
    assert np.array_equal(back, mat)
    # 17 significant digits present
    assert "2.7182818284590451" in text
    path = tmp_path / "m.json"
    write_matrix(path, mat)
    assert np.array_equal(read_matrix(path), mat)


def test_matrix_rejects_malformed():
    with pytest.raises(ValueError, match="unknown"):
        matrix_from_json('{"dim": 2, "rows": [[1, 0], [0, 1]], "extra": 1}')
    with pytest.raises(ValueError, match="does not match"):
        matrix_from_json('{"dim": 4, "rows": [[1, 0], [0, 1]]}')
    for text in MALFORMED_MATRICES.values():
        with pytest.raises(MatrixFileError):
            matrix_from_json(text)


MALFORMED_MATRICES = {
    "bare_rows": "[[1, 0], [0, 1]]",
    "null": "null",
    "no_rows": '{"dim": 2}',
    "list": "[1, 2]",
    "nan_entry": '{"dim": 2, "rows": [[NaN, 0], [0, 1]]}',
    "invalid_json": '{"dim": 2, "rows": [[1, 0], [0, 1]]',
    "ragged_rows": '{"dim": 2, "rows": [[1, 0], [0]]}',
    "float_dim": '{"dim": 2.0, "rows": [[1, 0], [0, 1]]}',
    "bool_entry": '{"dim": 2, "rows": [[true, 0], [0, 1]]}',
    "odd_dim": '{"dim": 3, "rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
    "zero_dim": '{"dim": 0, "rows": []}',
    "negative_dim": '{"dim": -2, "rows": [[1, 0], [0, 1]]}',
}


@pytest.mark.parametrize("command", ["classify", "positivity"])
@pytest.mark.parametrize("text", MALFORMED_MATRICES.values(), ids=MALFORMED_MATRICES)
def test_malformed_matrix_file_exits_config(tmp_path, capsys, command, text):
    mfile = tmp_path / "m.json"
    mfile.write_text(text)
    out = tmp_path / "out"
    if command == "classify":
        argv = ["classify", mfile, "--out", out]
    else:
        cfg = write_config(tmp_path / "p.json", {"matrix_file": str(mfile)})
        argv = ["positivity", "--config", cfg, "--out", out, "--seed", 1]
    assert run(argv) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: matrix") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["classify", "contract", "ladder", "geodesic",
                                     "positivity", "positivity_matrix"])
def test_directory_path_exits_config(tmp_path, capsys, command):
    # a matrix file or config path that names a directory cannot be read
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out"
    if command == "classify":
        argv = ["classify", folder, "--out", out]
    elif command == "positivity_matrix":
        cfg = write_config(tmp_path / "p.json", {"matrix_file": str(folder)})
        argv = ["positivity", "--config", cfg, "--out", out, "--seed", 1]
    else:
        argv = [command, "--config", folder, "--out", out]
        if command == "positivity":
            argv += ["--seed", 1]
    assert run(argv) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


VALID_CONFIGS = {
    "contract": {"h_values": [0.01], "grid": {"L": 16.0, "N": 128},
                 "gap_grid": {"L": 24.0, "N": 128}},
    "ladder": {"mode": "counting", "h_values": [0.01]},
    "geodesic": {"t_final": 0.01, "step": 1e-3, "classify_orbits": False},
    # ten million samples take seconds; the refusal must come first
    "positivity": {"rates": [1.0], "samples": 10 ** 7},
}


@pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["classify", *VALID_CONFIGS])
def test_out_naming_a_file_exits_config_before_work(tmp_path, capsys, command, below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile
    if command == "classify":
        mfile = tmp_path / "m.json"
        write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
        argv = ["classify", mfile, "--out", out]
    else:
        cfg = write_config(tmp_path / "c.json", VALID_CONFIGS[command])
        argv = [command, "--config", cfg, "--out", out]
        if command == "positivity":
            argv += ["--seed", 1]
    started = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - started < 1.0
    assert afile.read_text() == "kept\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --out") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_model_matrix(tmp_path):
    mfile = tmp_path / "model.json"
    write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
    out = tmp_path / "out"
    assert run(["classify", mfile, "--out", out]) == 0
    report = json.loads((out / "classification.json").read_text())
    assert report["n_hr_plus"] == 1
    assert report["reconstruction_error"] <= 1e-8
    assert (out / "manifest.json").exists()


def test_classify_identity_exit_code(tmp_path):
    mfile = tmp_path / "eye.json"
    write_matrix(mfile, np.eye(2))
    assert run(["classify", mfile, "--out", tmp_path / "out"]) == 2


def test_classify_refusal_leaves_no_output_directory(tmp_path):
    mfile = tmp_path / "eye.json"
    write_matrix(mfile, np.eye(4))
    assert run(["classify", mfile, "--out", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_classify_repeated_real_pair(tmp_path):
    mu = math.exp(0.6)
    mfile = tmp_path / "repeated.json"
    write_matrix(mfile, np.diag([mu, mu, 1.0 / mu, 1.0 / mu]))
    out = tmp_path / "out"
    assert run(["classify", mfile, "--out", out]) == 0
    report = json.loads((out / "classification.json").read_text())
    assert [b["kind"] for b in report["blocks"]] == ["real-positive"] * 2
    assert report["reconstruction_error"] <= 1e-10


def test_classify_negative_pair_reports_pi(tmp_path):
    mfile = tmp_path / "neg.json"
    write_matrix(mfile, np.diag([-2.0, -0.5]))
    out = tmp_path / "out"
    assert run(["classify", mfile, "--out", out]) == 0
    report = json.loads((out / "classification.json").read_text())
    assert report["n_hr_minus"] == 1
    assert report["rotation_diagonal"] == [math.pi]


def test_classify_nan_reconstruction_exits_numeric(tmp_path, monkeypatch):
    # a NaN error compares False against the tolerance; it must not pass
    from monodromy_lab import symplectic

    monkeypatch.setattr(symplectic, "_expm", lambda a: np.full_like(a, np.nan))
    mfile = tmp_path / "model.json"
    write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
    assert run(["classify", mfile, "--out", tmp_path / "out"]) == 1
    assert not (tmp_path / "out").exists()


def test_classify_missing_file(tmp_path):
    assert run(["classify", tmp_path / "nope.json", "--out", tmp_path]) == 3


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "0.1", "10"])
def test_classify_rejects_bad_tol_unit(tmp_path, tol):
    # the ambiguous band (tol, 10 tol) must lie inside the unit disc
    mfile = tmp_path / "model.json"
    write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
    out = tmp_path / "out"
    assert run(["classify", mfile, "--tol-unit", tol, "--out", out]) == 3
    assert not out.exists()


def test_classify_default_tol_unit(tmp_path):
    from monodromy_lab.cli import build_parser

    assert build_parser().parse_args(["classify", "m.json"]).tol_unit == 1e-6
    mfile = tmp_path / "model.json"
    write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
    assert run(["classify", mfile, "--out", tmp_path / "a"]) == 0
    assert run(["classify", mfile, "--tol-unit", "1e-6", "--out", tmp_path / "b"]) == 0
    assert ((tmp_path / "a" / "classification.json").read_bytes()
            == (tmp_path / "b" / "classification.json").read_bytes())


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["contract"],
    ["frobnicate"],
    ["classify", "m.json", "--tol-unit", "abc"],
], ids=["missing_config", "unknown_subcommand", "non_numeric_tol"])
def test_usage_errors_exit_config(argv, capsys):
    assert run(argv) == 3
    assert "error" in capsys.readouterr().err


def test_seed_only_on_positivity():
    from monodromy_lab.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["positivity", "--config", "c.json", "--seed", "5"]).seed == 5
    for argv in (["classify", "m.json"], ["contract", "--config", "c.json"],
                 ["ladder", "--config", "c.json"], ["geodesic", "--config", "c.json"]):
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--seed", "5"])


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


def test_shared_parser_serves_successive_commands(tmp_path):
    # the parser is built once per process; a usage error must leave it fit
    # for the commands that follow in the same process
    from monodromy_lab.cli import build_parser

    assert build_parser() is build_parser()
    assert run(["contract"]) == 3
    mfile = tmp_path / "model.json"
    write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
    assert run(["classify", mfile, "--out", tmp_path / "c"]) == 0
    cfg = write_config(tmp_path / "p.json", {
        "rates": [1.0], "samples": 100, "radius": 5.0,
    })
    assert run(["positivity", "--config", cfg, "--out", tmp_path / "p",
                "--seed", 1]) == 0


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def test_contract_sweep(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "lam": 1.0, "s": 0.3, "hbar_tilde": 0.2,
        "h_values": [0.01, 0.005],
        "grid": {"L": 16.0, "N": 128},
        "gap_grid": {"L": 24.0, "N": 128},
    })
    out = tmp_path / "out"
    assert run(["contract", "--config", cfg, "--out", out]) == 0
    lines = (out / "contraction.csv").read_text().splitlines()
    assert lines[0] == "h,hbar_tilde,s,r,gap_value,subspace_rank,unitarity_defect"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) < 1.0
        assert float(fields[4]) > 0.0
        assert int(fields[5]) > 0


def test_contract_zero_weight_row(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "s": 0.0, "h_values": [0.01],
        "grid": {"L": 16.0, "N": 128}, "gap_grid": {"L": 24.0, "N": 128},
    })
    out = tmp_path / "out"
    assert run(["contract", "--config", cfg, "--out", out]) == 0
    row = (out / "contraction.csv").read_text().splitlines()[1]
    assert float(row.split(",")[3]) == pytest.approx(1.0, abs=1e-9)


def test_contract_malformed_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"h_values": [0.01], "typo_key": 1})
    assert run(["contract", "--config", cfg, "--out", tmp_path / "o"]) == 3
    cfg2 = write_config(tmp_path / "c2.json", {})
    assert run(["contract", "--config", cfg2, "--out", tmp_path / "o"]) == 3


def test_contract_reproducible_output(tmp_path):
    doc = {"s": 0.25, "h_values": [0.02, 0.01],
           "grid": {"L": 16.0, "N": 128}, "gap_grid": {"L": 24.0, "N": 128}}
    cfg = write_config(tmp_path / "c.json", doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["contract", "--config", cfg, "--out", out1]) == 0
    assert run(["contract", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "contraction.csv").read_bytes() == (out2 / "contraction.csv").read_bytes()


def test_contract_version_in_manifest(tmp_path):
    import monodromy_lab

    cfg = write_config(tmp_path / "c.json", {
        "s": 0.0, "h_values": [0.01],
        "grid": {"L": 16.0, "N": 128}, "gap_grid": {"L": 24.0, "N": 128},
    })
    out = tmp_path / "out"
    assert run(["contract", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["monodromy_lab"] == monodromy_lab.__version__


def test_manifest_reads_package_version_once(tmp_path, monkeypatch):
    import importlib.metadata

    from monodromy_lab import serialize

    lookups = []
    real_version = importlib.metadata.version

    def counted(name):
        lookups.append(name)
        return real_version(name)

    serialize._package_version.cache_clear()
    monkeypatch.setattr(importlib.metadata, "version", counted)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        serialize.write_manifest(tmp_path / name, "contract", {}, [], time.time())
    assert lookups == ["monodromy-lab"]
    docs = [json.loads((tmp_path / n / "manifest.json").read_text()) for n in "ab"]
    assert docs[0]["versions"] == docs[1]["versions"]


@pytest.mark.parametrize("doc", [
    {"h_values": [0.01], "grid": {"N": 63}},
    {"h_values": ["x"]},
    {"h_values": [0.01], "grid": {"N": 64.9}},
    {"h_values": [math.nan]},
    {"h_values": [0.01], "lam": True},
    {"h_values": [0.01], "grid": {"N": 1048576}},
    {"h_values": [0.01], "hbar_tilde": 1.5},
    {"h_values": [0.3]},  # h past the default hbar_tilde = 0.2
    {"h_values": [0.01], "s": 0.6},
    # q underflows to 0 in the h = 1e-320 gap basis, which is built first
    {"h_values": [1e-320]},
    # a span whose L * L / hbar overflows: the SVD fails, or the gap basis
    # degenerates to a wrong gap at rank 1
    {"h_values": [0.1], "grid": {"L": 1e308, "N": 512}},
    {"h_values": [0.1], "gap_grid": {"L": 1e200, "N": 512}},
], ids=["odd_N", "non_numeric_h", "fractional_N", "nan_h", "bool_lam", "oversized_N",
        "hbar_tilde_above_one", "h_above_hbar_tilde", "weight_above_half",
        "subnormal_h", "overflowing_grid", "overflowing_gap_grid"])
def test_contract_bad_config_exits_config(tmp_path, doc):
    cfg = write_config(tmp_path / "c.json", doc)
    started = time.perf_counter()
    assert run(["contract", "--config", cfg, "--out", tmp_path / "o"]) == 3
    # refused before any N x N allocation and before the output exists
    assert time.perf_counter() - started < 1.0
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    {"h_values": [0.1], "grid": {"N": 2}},
    {"h_values": [0.001], "hbar_tilde": 0.001, "grid": {"N": 128},
     "gap_grid": {"N": 128}},
], ids=["two_point_grid", "small_hbar_tilde"])
def test_contract_refuses_grid_smaller_than_subspace(tmp_path, doc, capsys):
    # the default 72-mode subspace does not fit on 2 points, and at
    # hbar_tilde = 1e-3 each subspace needs thousands of Hermite modes
    cfg = write_config(tmp_path / "c.json", doc)
    started = time.perf_counter()
    assert run(["contract", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert time.perf_counter() - started < 1.0
    assert not (tmp_path / "o").exists()
    assert "Hermite modes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def test_ladder_exact_with_residuals(tmp_path):
    cfg = write_config(tmp_path / "l.json", {
        "mode": "exact", "alpha": 1.0, "h": 0.01, "m_exponent": 2,
        "c0": 0.5, "residuals": True, "grid": {"L": 1.5, "N": 256},
    })
    out = tmp_path / "out"
    assert run(["ladder", "--config", cfg, "--out", out]) == 0
    lines = (out / "ladder_exact.csv").read_text().splitlines()
    assert lines[0] == "k,beta_1,z,residual"
    assert len(lines) > 1
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-8
    summary = json.loads((out / "ladder_summary.json").read_text())
    assert summary["count"] == len(lines) - 1


def test_ladder_exact_residuals_beyond_any_time_grid(tmp_path):
    # 77 entries reach |k| = 35; h D_t needs no time grid, so none is refused
    cfg = write_config(tmp_path / "l.json", {
        "mode": "exact", "alpha": 100, "h": 1e-3, "m_exponent": 1,
        "c0": 110, "residuals": True,
    })
    out = tmp_path / "out"
    assert run(["ladder", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in
            (out / "ladder_exact.csv").read_text().splitlines()[1:]]
    assert len(rows) == 77
    assert max(abs(int(row[0])) for row in rows) == 35
    assert all(float(row[-1]) <= 1e-8 for row in rows)


def test_ladder_counting_slopes(tmp_path):
    cfg = write_config(tmp_path / "l.json", {
        "mode": "counting", "alpha": 1.0, "m_exponent": 2, "c0": 1.0,
        "h_values": [1e-2, 1e-3],
    })
    out = tmp_path / "out"
    assert run(["ladder", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "ladder_summary.json").read_text())
    assert all(0.75 <= s <= 2.25 for s in summary["slopes"])


def test_ladder_counting_collision_exits_numeric(tmp_path, capsys):
    # at alpha = 4 pi the values z(k, b) and z(k + 2, b - 1) coincide
    cfg = write_config(tmp_path / "l.json", {"mode": "counting", "alpha": 4.0 * math.pi})
    out = tmp_path / "out"
    assert run(["ladder", "--config", cfg, "--out", out]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: ladder values 0.0 and 0.0 collide at 1e-12 resolution\n"


def test_ladder_bad_mode(tmp_path):
    cfg = write_config(tmp_path / "l.json", {"mode": "sideways"})
    assert run(["ladder", "--config", cfg, "--out", tmp_path / "o"]) == 3


@pytest.mark.parametrize("doc", [
    {"mode": "exact", "h": 1e-3, "c0": 1e9},
    {"mode": "perturbed", "h": 1e-3, "c0": 1e9, "lambda0": [0.5, 0.7]},
], ids=["exact", "perturbed"])
def test_ladder_oversized_lattice_exits_config_fast(tmp_path, doc):
    cfg = write_config(tmp_path / "l.json", doc)
    started = time.perf_counter()
    assert run(["ladder", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert time.perf_counter() - started < 1.0


def test_ladder_perturbed_empty_window_header_has_every_mode(tmp_path):
    # the window holds no entry, so the beta columns come from lambda0
    cfg = write_config(tmp_path / "l.json", {
        "mode": "perturbed", "h": 0.01, "c0": 1e-4, "lambda0": [0.5, 0.7],
    })
    out = tmp_path / "o"
    assert run(["ladder", "--config", cfg, "--out", out]) == 0
    lines = (out / "ladder_perturbed.csv").read_text().splitlines()
    assert lines == ["k,beta_1,beta_2,z,residual"]


def test_ladder_perturbed_order_does_not_change_output(tmp_path):
    # the benchmark's perturbed config; the root is in closed form, so the
    # accepted order key leaves the table byte for byte as it is
    tables = set()
    for order in (0, 1, 3):
        cfg = write_config(tmp_path / f"l{order}.json", {
            "mode": "perturbed", "alpha": 1.0, "m_exponent": 2.0, "c0": 0.5,
            "h": 1e-3, "lambda0": [0.5, 0.7], "order": order,
        })
        out = tmp_path / f"o{order}"
        assert run(["ladder", "--config", cfg, "--out", out]) == 0
        tables.add((out / "ladder_perturbed.csv").read_bytes())
    assert len(tables) == 1


@pytest.mark.parametrize("doc, table, digest", [
    ({"mode": "exact", "h": 1e-3}, "ladder_exact.csv",
     "fb0dc2c63a64a5755319531cdebefb89ec5c9b158f2cdadd6829fa2a6db2c10b"),
    ({"mode": "perturbed", "h": 1e-3, "lambda0": [0.5, 0.7], "order": 3},
     "ladder_perturbed.csv",
     "2dee9d0819a0fee75f73e30115906eaea0dcdd6a4b32bf98e3392c1fb0077b73"),
    ({"mode": "counting", "h_values": [1e-2, 1e-3, 1e-4, 1e-5]}, "counting.csv",
     "cc19a3c1e07bea697fb81ac42acace63aa28ebb95868bd545eba446c1a86cf16"),
], ids=["exact", "perturbed", "counting"])
def test_ladder_tables_are_byte_identical(tmp_path, doc, table, digest):
    # the benchmark's ladder configs (exact without residuals, which depend
    # on the BLAS); the digests are those of the per-entry enumeration
    cfg = write_config(tmp_path / "l.json",
                       {"alpha": 1.0, "m_exponent": 2.0, "c0": 0.5, **doc})
    assert run(["ladder", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert hashlib.sha256((tmp_path / "o" / table).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("lambda0", [[0.0], [-0.5, 0.7], []],
                         ids=["zero", "negative", "empty"])
def test_ladder_perturbed_rejects_nonpositive_lambda0(tmp_path, lambda0):
    cfg = write_config(tmp_path / "l.json", {
        "mode": "perturbed", "h": 1e-2, "lambda0": lambda0,
    })
    assert run(["ladder", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert not (tmp_path / "o" / "ladder_perturbed.csv").exists()


@pytest.mark.parametrize("doc", [
    {"mode": "perturbed", "h": 1e-2, "lambda0": [0.0]},
    {"mode": "sideways"},
    {"mode": "exact", "h": 1e-3, "c0": 1e9},
    {"mode": "perturbed", "h": 0.01, "c0": 0.1, "lambda0": [0.5, 0.7], "order": -3},
    # the counting slope log(count)/log(1/h) needs 0 < h < 1
    {"mode": "counting", "c0": 0.1, "h_values": [1.0]},
    {"mode": "counting", "c0": 0.1, "h_values": [0.0]},
    {"mode": "counting", "c0": 0.1, "h_values": [1e-2, -0.1]},
    {"mode": "counting", "c0": 0.1, "h_values": []},
    # the window reaches beta = 8, past the capacity 0 of this grid at h
    {"mode": "exact", "h": 0.1, "c0": 1.0, "residuals": True,
     "grid": {"L": 1.0, "N": 64}},
    # the beta window of a subnormal rate is infinite
    {"mode": "perturbed", "h": 1e-3, "lambda0": [1e-320]},
    # the k window c0 h^(1/m - 1) / pi overflows to inf in every mode
    {"mode": "exact", "h": 1e-3, "c0": 1e308},
    {"mode": "perturbed", "h": 1e-3, "c0": 1e308, "lambda0": [0.5]},
    {"mode": "counting", "c0": 1e308, "h_values": [1e-3]},
    # the grid span overflows the Hermite capacity L^2 / 4h
    {"mode": "exact", "h": 1e-3, "residuals": True, "grid": {"L": 1e154, "N": 512}},
    {"mode": "exact", "h": 1e-3, "residuals": True, "grid": {"L": 1e200, "N": 512}},
], ids=["zero_lambda0", "unknown_mode", "oversized_lattice", "negative_order",
        "counting_h_one", "counting_h_zero", "counting_h_negative",
        "counting_no_h", "residual_beta_past_grid_capacity", "subnormal_lambda0",
        "infinite_k_window_exact", "infinite_k_window_perturbed",
        "infinite_k_window_counting", "overflowing_grid_capacity",
        "overflowing_grid_square"])
def test_ladder_refusal_leaves_no_output_directory(tmp_path, doc):
    cfg = write_config(tmp_path / "l.json", doc)
    assert run(["ladder", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("residuals", [False, True])
def test_ladder_exact_refuses_malformed_grid(tmp_path, residuals):
    # the grid is checked before the ladder is built, also when no
    # residual reads it
    cfg = write_config(tmp_path / "l.json", {
        "mode": "exact", "h": 0.01, "c0": 0.1, "residuals": residuals,
        "grid": {"L": 1.0, "N": 63},
    })
    assert run(["ladder", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert not (tmp_path / "o").exists()


LADDER_BASE = {
    "exact": {"mode": "exact", "h": 0.01, "c0": 0.1},
    "perturbed": {"mode": "perturbed", "h": 0.001, "c0": 0.1, "lambda0": [0.5, 0.7]},
    "counting": {"mode": "counting", "c0": 0.1, "h_values": [1e-2]},
}
UNREAD_LADDER_KEYS = [
    ("exact", "lambda0", [0.5]), ("exact", "order", 1),
    ("exact", "h_values", [1e-2]),
    ("perturbed", "residuals", True), ("perturbed", "grid", {"L": 1.0, "N": 64}),
    ("perturbed", "h_values", [1e-2]),
    ("counting", "residuals", True), ("counting", "grid", {"L": 1.0, "N": 64}),
    ("counting", "lambda0", [0.5]), ("counting", "order", 1),
    ("counting", "h", 1e-3),
]


@pytest.mark.parametrize("mode, key, value", UNREAD_LADDER_KEYS,
                         ids=[f"{m}-{k}" for m, k, _ in UNREAD_LADDER_KEYS])
def test_ladder_refuses_keys_its_mode_does_not_read(tmp_path, mode, key, value):
    # perturbed with residuals used to certify the elliptic rotation on
    # beta_1 alone and write that as the perturbed residual
    cfg = write_config(tmp_path / "l.json", {**LADDER_BASE[mode], key: value})
    out = tmp_path / "o"
    assert run(["ladder", "--config", cfg, "--out", out]) == 3
    assert not out.exists()
    # without the key the same config runs
    cfg = write_config(tmp_path / "l.json", LADDER_BASE[mode])
    assert run(["ladder", "--config", cfg, "--out", out]) == 0


# ---------------------------------------------------------------------------
# geodesic
# ---------------------------------------------------------------------------

def test_geodesic_base_orbits(tmp_path):
    cfg = write_config(tmp_path / "g.json", {
        "orbit_z": 0.0, "t_final": 1.0, "step": 1e-3, "stride": 100,
        "classify_orbits": True,
    })
    out = tmp_path / "out"
    assert run(["geodesic", "--config", cfg, "--out", out]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz,energy"
    reports = json.loads((out / "poincare.json").read_text())
    verdicts = [r["verdict"] for r in reports]
    assert verdicts == ["semi-hyperbolic", "hyperbolic", "hyperbolic"]
    signatures = [r["hessian_signature"] for r in reports]
    assert signatures == [["-", "+"], ["-", "-"], ["-", "-"]]


def test_geodesic_hessian_disagreement_exits_numeric(tmp_path, monkeypatch):
    from monodromy_lab import geodesic

    flipped = geodesic.potential_hessian
    monkeypatch.setattr(geodesic, "potential_hessian", lambda y, z: -flipped(y, z))
    cfg = write_config(tmp_path / "g.json", {"t_final": 0.01, "step": 1e-3})
    out = tmp_path / "out"
    assert run(["geodesic", "--config", cfg, "--out", out]) == 1
    assert not out.exists()


def test_geodesic_blowup_exit(tmp_path):
    cfg = write_config(tmp_path / "g.json", {
        "initial_state": [0.0, 2.5, 0.0, 3.0, 4.0, 0.0],
        "t_final": 50.0, "step": 1e-3, "stride": 100,
        "classify_orbits": False,
    })
    assert run(["geodesic", "--config", cfg, "--out", tmp_path / "o"]) == 1


@pytest.mark.parametrize("doc", [
    {"stride": 0},
    {"stride": -3},
    {"t_final": 1e12},
    {"t_final": 1e-6, "step": 1e-9, "classify_orbits": True},
    # initial_state sets the whole start, so orbit_z would go unread
    {"orbit_z": 0.0, "initial_state": [0.0, 0.0, 0.5, 1.0, 0.0, 0.0]},
    # a subnormal step makes the step count infinite
    {"step": 1e-320},
    # starts outside |y|, |z| <= DOMAIN_BOUND, or with infinite energy
    {"orbit_z": 1e100},
    {"orbit_z": 20.0},
    {"initial_state": [0.0, 0.0, 1e100, 1.0, 0.0, 0.0]},
    {"initial_state": [0.0, 5.0, 0.0, 1e300, 0.0, 0.0]},
], ids=["zero_stride", "negative_stride", "huge_t_final", "tiny_orbit_step",
        "orbit_z_and_initial_state", "subnormal_step", "orbit_z_overflow",
        "orbit_z_outside_domain", "initial_state_outside_domain",
        "initial_state_infinite_energy"])
def test_geodesic_bad_config_exits_config(tmp_path, doc):
    cfg = write_config(tmp_path / "g.json", {
        "t_final": 0.01, "step": 1e-3, "stride": 1, "classify_orbits": False, **doc,
    })
    started = time.perf_counter()
    assert run(["geodesic", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert time.perf_counter() - started < 1.0
    assert not (tmp_path / "o").exists()


def test_geodesic_refused_orbit_step_writes_nothing(tmp_path):
    cfg = write_config(tmp_path / "g.json", {"t_final": 1e-6, "step": 1e-9})
    out = tmp_path / "o"
    assert run(["geodesic", "--config", cfg, "--out", out]) == 3
    assert not out.exists()


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def test_positivity_diagonal(tmp_path):
    cfg = write_config(tmp_path / "p.json", {
        "rates": [1.0], "samples": 2000, "radius": 10.0,
    })
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 0
    report = json.loads((out / "positivity.json").read_text())
    assert report["min_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_positivity_requires_seed(tmp_path):
    cfg = write_config(tmp_path / "p.json", {
        "rates": [1.0], "samples": 100, "radius": 5.0,
    })
    assert run(["positivity", "--config", cfg, "--out", tmp_path / "o"]) == 3


def test_positivity_negative_seed_exits_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "p.json", {"rates": [1.0], "samples": 100})
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", -1]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --seed must be >= 0, got -1\n"


def test_positivity_from_matrix(tmp_path):
    mfile = tmp_path / "m.json"
    write_matrix(mfile, np.diag([math.e, 1.0 / math.e]))
    cfg = write_config(tmp_path / "p.json", {
        "matrix_file": str(mfile), "samples": 2000, "radius": 10.0,
    })
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 2]) == 0


def jordan_map(lam, k=2):
    """exp(diag(N, -N^T)) with N = lam I + the unit superdiagonal, k x k:
    hyperbolic, with one Jordan chain of length k."""
    from scipy.linalg import expm

    n = lam * np.eye(k) + np.eye(k, k=1)
    big = np.zeros((2 * k, 2 * k))
    big[:k, :k], big[k:, k:] = n, -n.T
    return expm(big)


@pytest.mark.parametrize("lam", [0.2, 0.49])
def test_positivity_jordan_chain_passes(tmp_path, lam):
    # unrescaled, the chain's unit coupling drives the ratio negative
    # (-0.3 at lam = 0.2); rescaled, the floor is lam - lam/4
    mfile = tmp_path / "m.json"
    write_matrix(mfile, jordan_map(lam))
    cfg = write_config(tmp_path / "p.json", {"matrix_file": str(mfile), "samples": 20000})
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 0
    report = json.loads((out / "positivity.json").read_text())
    assert report["min_ratio"] >= lam / 2.0


def test_positivity_jordan_chain_of_length_three(tmp_path):
    # rescaled, the chain's symmetric part is lam I + (lam/4)(N + N^T), whose
    # smallest eigenvalue is lam (1 - cos(pi/4) / 2); the conjugation makes
    # eig split the triple eigenvalue by about (1e-16)^(1/3)
    from monodromy_lab.symplectic import random_symplectic

    lam = 0.3
    t = random_symplectic(6, np.random.default_rng(37), scale=0.1).entries
    mfile = tmp_path / "m.json"
    write_matrix(mfile, t @ jordan_map(lam, k=3) @ np.linalg.inv(t))
    cfg = write_config(tmp_path / "p.json", {"matrix_file": str(mfile), "samples": 20000})
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 0
    report = json.loads((out / "positivity.json").read_text())
    assert report["min_ratio"] >= lam * (1.0 - 0.5 * math.cos(math.pi / 4.0)) - 1e-12


def test_unequal_chains_on_one_eigenvalue_classify_and_pass_positivity(tmp_path):
    # chains of sizes 1 and 3 on the eigenvalue e^lam; the size-3 chain sets
    # the floor lam (1 - cos(pi/4) / 2) of the rescaled stretch matrix
    from scipy.linalg import block_diag, expm

    from monodromy_lab.symplectic import random_symplectic

    lam = 0.4
    n = block_diag(lam * np.eye(1), lam * np.eye(3) + np.eye(3, k=1))
    t = random_symplectic(8, np.random.default_rng(0), scale=0.25).entries
    mfile = tmp_path / "m.json"
    write_matrix(mfile, t @ expm(block_diag(n, -n.T)) @ np.linalg.inv(t))
    assert run(["classify", mfile, "--out", tmp_path / "c"]) == 0
    report = json.loads((tmp_path / "c" / "classification.json").read_text())
    assert [b["multiplicity"] for b in report["blocks"]] == [3, 1]
    cfg = write_config(tmp_path / "p.json", {"matrix_file": str(mfile)})
    out = tmp_path / "p"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 0
    report = json.loads((out / "positivity.json").read_text())
    assert report["min_ratio"] >= lam * (1.0 - 0.5 * math.cos(math.pi / 4.0)) - 1e-12


def test_positivity_failure_prints_plain_floats(tmp_path, capsys, monkeypatch):
    # the generator without the chain rescale fails; its witness is printed
    # as floats, not as numpy reprs
    from monodromy_lab import cli

    monkeypatch.setattr(cli, "build_quadratic_hamiltonian",
                        lambda cls: np.array(cls.B[:2, :2]))
    mfile = tmp_path / "m.json"
    write_matrix(mfile, jordan_map(0.2))
    cfg = write_config(tmp_path / "p.json", {"matrix_file": str(mfile), "samples": 2000})
    assert run(["positivity", "--config", cfg, "--out", tmp_path / "out", "--seed", 1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: positivity failed: min_ratio = -0.")
    assert "np.float64" not in err


def test_positivity_overflow_exits_numeric(tmp_path):
    # |x|^2 overflows at this radius for every ball sample; the run must
    # fail rather than certify on the 2560 sweep points alone
    cfg = write_config(tmp_path / "p.json", {
        "rates": [1.0], "samples": 1000, "radius": 1e200,
    })
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 1
    assert not out.exists()


def test_positivity_small_radius_counts_every_sample(tmp_path):
    # |x|^2 + |xi|^2 ~ 1e-16 here: every ball sample is kept next to the
    # 2560 sweep points, and the Rayleigh quotient stays exact
    cfg = write_config(tmp_path / "p.json", {
        "rates": [1.0], "samples": 1000, "radius": 1e-8,
    })
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 0
    report = json.loads((out / "positivity.json").read_text())
    assert report["samples"] == 1000 + 64 * 40
    assert report["min_ratio"] >= 1.0 - 1e-12


def test_positivity_underflow_exits_numeric(tmp_path):
    # the envelope underflows at this radius; the run must fail rather than
    # drop the ball samples and certify on the sweep points alone
    cfg = write_config(tmp_path / "p.json", {
        "rates": [1.0], "samples": 1000, "radius": 1e-200,
    })
    out = tmp_path / "out"
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 1
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"rates": [], "samples": 100},
    {"rates": [1.0], "samples": 10 ** 8 + 1},
], ids=["empty_rates", "oversized_samples"])
def test_positivity_bad_config_exits_config_fast(tmp_path, doc):
    cfg = write_config(tmp_path / "p.json", doc)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert run(["positivity", "--config", cfg, "--out", out, "--seed", 1]) == 3
    assert time.perf_counter() - started < 1.0
    assert not out.exists()
