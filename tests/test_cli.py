"""Command-line interface: schemas, exit codes, reproducibility.

The tests call cli.main(argv) in the test process through conftest's
cli_main fixture, which reads its stdout and stderr with capsys, so
argument parsing and exit codes are exercised as the entry point runs
them, without an interpreter per call. Two tests start `python -m
compfade` in a subprocess: one runs the module entry point as a shell
user does, and one sets COMPFADE_MAX_TERMS, which is read only when
compfade is imported. The subprocess gets the imported package's source
directory on PYTHONPATH (conftest.child_env), so it runs from a checkout
as well as from an installed copy.
"""

import json
import subprocess
import sys

from conftest import child_env

CLI = [sys.executable, "-m", "compfade"]


def run_cli(*args, env_extra=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, env=child_env(**(env_extra or {}))
    )


AEF_CURVE = [
    "curve", "--dist", "aef", "--alpha", "3.5", "--eta", "0.5",
    "--mu", "1.5", "--ms", "3", "--quantity", "snr-pdf",
    "--gamma-bar", "2", "--from", "0.5", "--to", "2", "--points", "4",
]
FISHER_CURVE = [
    "curve", "--dist", "akf", "--alpha", "2", "--kappa", "0",
    "--mu", "1", "--ms", "2", "--quantity", "snr-cdf",
    "--gamma-bar", "1", "--from", "1", "--to", "1", "--points", "1",
]
SAMPLE = [
    "sample", "--dist", "aef", "--alpha", "2.5", "--eta", "0.4",
    "--mu", "2", "--ms", "4", "--n", "64", "--seed", "123",
]


def test_curve_csv_schema_and_exit_zero():
    r = run_cli(*AEF_CURVE)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.decode().splitlines()
    assert lines[0] == "x,value,est_error,converged"
    assert len(lines) == 5
    for line in lines[1:]:
        x, v, e, c = line.split(",")
        float(x), float(v), float(e)
        assert c in ("true", "false")
    # newline discipline: LF only
    assert b"\r" not in r.stdout


def test_curve_fisher_row_is_exact(cli_main):
    r = cli_main(*FISHER_CURVE)
    assert r.returncode == 0
    row = r.stdout.decode().splitlines()[1]
    assert row == "1.0,0.75,0.0,true"


def test_curve_json_schema(cli_main):
    r = cli_main(*AEF_CURVE, "--out", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout.decode())
    assert set(doc) == {"spec", "rows"}
    assert doc["spec"]["quantity"] == "snr-pdf"
    assert len(doc["rows"]) == 4
    assert set(doc["rows"][0]) == {"x", "value", "est_error", "converged"}


def test_curve_db_rescales_x_column(cli_main):
    r_lin = cli_main(*AEF_CURVE)
    r_db = cli_main(*AEF_CURVE, "--db")
    rows_lin = [l.split(",") for l in r_lin.stdout.decode().splitlines()[1:]]
    rows_db = [l.split(",") for l in r_db.stdout.decode().splitlines()[1:]]
    import math
    for lin, db in zip(rows_lin, rows_db):
        assert abs(float(db[0]) - 10.0 * math.log10(float(lin[0]))) <= 1e-12
        assert db[1] == lin[1]  # values untouched


def test_curve_op_asym_matches_gain_slope(cli_main):
    args = [
        "curve", "--dist", "akf", "--alpha", "2.5", "--kappa", "1.5",
        "--mu", "1.2", "--ms", "4", "--quantity", "op-asym",
        "--gamma-bar", "10000", "--from", "1", "--to", "1", "--points", "1",
    ]
    r = cli_main(*args)
    assert r.returncode == 0
    val = float(r.stdout.decode().splitlines()[1].split(",")[1])
    assert 0.0 < val < 1e-3


def test_cross_family_flags_rejected(cli_main):
    r = cli_main(
        "curve", "--dist", "akf", "--alpha", "2", "--eta", "0.5",
        "--mu", "1", "--ms", "2", "--quantity", "snr-pdf",
        "--from", "1", "--to", "2",
    )
    assert r.returncode == 1
    assert b"eta" in r.stderr
    r2 = cli_main(
        "curve", "--dist", "aef", "--alpha", "2", "--kappa", "1",
        "--mu", "1", "--ms", "2", "--quantity", "snr-pdf",
        "--from", "1", "--to", "2",
    )
    assert r2.returncode == 1
    assert b"kappa" in r2.stderr


def test_quantity_scale_flags_rejected(cli_main):
    # envelope-pdf is scaled by --omega, the SNR quantities by
    # --gamma-bar; mixing them up is a usage error.
    r = cli_main(
        "curve", "--dist", "aef", "--alpha", "2", "--eta", "1",
        "--mu", "1", "--ms", "4", "--quantity", "envelope-pdf",
        "--gamma-bar", "2", "--from", "0.1", "--to", "1",
    )
    assert r.returncode == 1
    r2 = cli_main(
        "curve", "--dist", "aef", "--alpha", "2", "--eta", "1",
        "--mu", "1", "--ms", "4", "--quantity", "snr-pdf",
        "--omega", "2", "--from", "0.1", "--to", "1",
    )
    assert r2.returncode == 1


def test_bad_grid_rejected(cli_main):
    base = [
        "curve", "--dist", "aef", "--alpha", "2", "--eta", "1",
        "--mu", "1", "--ms", "4", "--quantity", "snr-pdf",
    ]
    assert cli_main(*base, "--from", "2", "--to", "1").returncode == 1
    assert cli_main(*base, "--from", "1", "--to", "2", "--points", "0").returncode == 1
    assert cli_main(*base, "--from", "0", "--to", "2", "--log").returncode == 1
    assert cli_main(*base, "--from", "1", "--to", "2", "--points", "1").returncode == 1


def test_db_grid_with_a_non_positive_point_is_refused_before_evaluation(cli_main):
    # 10*log10(0) used to raise a ValueError traceback after the whole curve
    # was evaluated; the grid is now refused up front
    base = [
        "curve", "--dist", "aef", "--alpha", "2.5", "--eta", "0.5",
        "--mu", "1.2", "--ms", "4", "--quantity", "snr-cdf", "--db",
    ]
    for grid in (["--from", "0", "--to", "2", "--points", "3"],
                 ["--from", "-1", "--to", "2", "--points", "3"],
                 ["--from", "0", "--to", "0", "--points", "1"]):
        r = cli_main(*base, *grid)
        assert r.returncode == 1
        assert r.stdout == b""
        assert b"--db" in r.stderr and b"Traceback" not in r.stderr
    assert cli_main(*base, "--from", "0.5", "--to", "2", "--points", "3").returncode == 0


def test_usage_errors_exit_one(cli_main):
    assert cli_main("curve", "--dist", "aef").returncode == 1
    assert cli_main("nonsense").returncode == 1
    assert cli_main().returncode == 1


def test_domain_errors_exit_one(cli_main):
    r = cli_main(
        "curve", "--dist", "aef", "--alpha", "2", "--eta", "-0.5",
        "--mu", "1", "--ms", "4", "--quantity", "snr-pdf",
        "--from", "0.5", "--to", "2",
    )
    assert r.returncode == 1
    assert r.stderr  # names the offending parameter


def test_unconverged_curve_exits_two():
    # Near-degenerate imbalance slows the CDF series enough that a small
    # term budget converges some grid points but not others; the rows
    # must still come out, flagged, with exit code 2.
    args = [
        "curve", "--dist", "aef", "--alpha", "2", "--eta", "0.02",
        "--mu", "1", "--ms", "3", "--quantity", "snr-cdf",
        "--gamma-bar", "1", "--from", "2", "--to", "8", "--points", "3",
    ]
    r = run_cli(*args, env_extra={"COMPFADE_MAX_TERMS": "250"})
    assert r.returncode == 2
    lines = r.stdout.decode().splitlines()
    assert len(lines) == 4
    flags = [line.split(",")[3] for line in lines[1:]]
    assert "false" in flags


def test_sample_csv_and_determinism(cli_main):
    r1 = cli_main(*SAMPLE)
    r2 = cli_main(*SAMPLE)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    lines = r1.stdout.decode().splitlines()
    assert lines[0] == "sample"
    assert len(lines) == 65
    float(lines[1])


def test_sample_chunks_do_not_change_output(cli_main):
    base = cli_main(*SAMPLE, "--chunks", "1")
    for chunks in (2, 3, 7):
        r = cli_main(*SAMPLE, "--chunks", str(chunks))
        assert r.stdout == base.stdout, f"chunks={chunks} changed the stream"


def test_sample_zero_n_is_header_only(cli_main):
    r = cli_main("sample", "--dist", "akf", "--alpha", "2", "--kappa", "1",
                "--mu", "2", "--ms", "4", "--n", "0", "--seed", "5")
    assert r.returncode == 0
    assert r.stdout.decode() == "sample\n"


def test_sample_fractional_mu_exits_one(cli_main):
    r = cli_main("sample", "--dist", "akf", "--alpha", "2", "--kappa", "1",
                "--mu", "1.5", "--ms", "4", "--n", "4", "--seed", "5")
    assert r.returncode == 1
    assert b"integer mu" in r.stderr


def test_sample_json_schema(cli_main):
    r = cli_main(*SAMPLE, "--out", "json")
    doc = json.loads(r.stdout.decode())
    assert set(doc) == {"spec", "samples"}
    assert len(doc["samples"]) == 64
    assert doc["spec"]["seed"] == 123


def test_validate_quick_passes(cli_main):
    r = cli_main("validate", "--level", "quick")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout.decode())
    assert doc["passed"] is True
    assert doc["level"] == "quick"
    assert all(set(c) >= {"name", "measured", "limit", "passed"} for c in doc["checks"])
    assert list(doc["seconds"]) == ["normalization", "lattice", "mc"]
    assert all(s > 0.0 for s in doc["seconds"].values())
    assert "validate quick seconds: normalization " in r.stderr.decode()


def test_validate_detects_seeded_defect(cli_main):
    # The hidden flag flips the sign of the imbalance term inside the
    # analytic CDF only; the physical sampler is untouched, so the KS
    # comparison must catch the disagreement and name the check.
    r = cli_main("validate", "--level", "quick", "--flip-h-sign")
    assert r.returncode == 3
    doc = json.loads(r.stdout.decode())
    assert doc["passed"] is False
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed and all(name.startswith("mc-ks") for name in failed)
