"""Tests for the command-line front end: the point grammar, deterministic
JSON, and the four subcommands end to end through main()."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodisc.cli as cli
import geodisc.metrics as metrics
from geodisc.continuation import PathResult
from geodisc.domain import DomainSpec
from geodisc.errors import NewtonFailure, NoConvergence, StepUnderflow
from geodisc.stationary import verify_E


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def ball_file(tmp_path):
    return write_json(tmp_path / "ball.json", {"n": 2, "kind": "ball"})


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def ball_formula(z, w):
    num = (1.0 - np.linalg.norm(z) ** 2) * (1.0 - np.linalg.norm(w) ** 2)
    den = abs(1.0 - complex(np.vdot(w, z))) ** 2
    return float(np.arctanh(np.sqrt(1.0 - num / den)))


# ---------------------------------------------------------------------------
# point grammar
# ---------------------------------------------------------------------------

ACCEPTED = [
    ("0.5", 0.5),
    ("-0.5", -0.5),
    ("1e-2", 0.01),
    (".5", 0.5),
    ("1.", 1.0),
    ("i", 1j),
    ("-i", -1j),
    ("+i", 1j),
    ("2i", 2j),
    ("-0.5i", -0.5j),
    ("1e-3i", 0.001j),
    ("1e+2i", 100j),
    ("0.5+0.3i", 0.5 + 0.3j),
    ("0.5-i", 0.5 - 1j),
    ("-0.25-0.75i", -0.25 - 0.75j),
    ("1.5e2+2.5e-1i", 150 + 0.25j),
]

REJECTED = [
    "",
    "1+",
    "i5",
    "1i2",
    "++1",
    "1+2",
    "nan",
    "inf",
    "NaN",
    "(1+2i)",
    "1 + 2i",
    "2 i",
    "1+2j",
    "0x1f",
    "--1",
    "1e",
    "0.5i+1",
]


@pytest.mark.parametrize("token,expected", ACCEPTED)
def test_coordinate_grammar_accepts(token, expected):
    assert cli.parse_coordinate(token) == expected


@pytest.mark.parametrize("token", REJECTED)
def test_coordinate_grammar_rejects(token):
    with pytest.raises(ValueError):
        cli.parse_coordinate(token)


def test_parse_point_counts_coordinates():
    z = cli.parse_point("0.3, 0.1-0.2i", 2)
    assert np.allclose(z, [0.3, 0.1 - 0.2j])
    with pytest.raises(ValueError):
        cli.parse_point("0.3", 2)
    with pytest.raises(ValueError):
        cli.parse_point("0.3,0.4,0.5", 2)


def test_fmt_refuses_non_finite():
    assert cli.fmt(0.25) == "0.25"
    with pytest.raises(ValueError):
        cli.fmt(float("nan"))
    with pytest.raises(ValueError):
        cli.fmt(float("inf"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=4,
        max_size=4,
    )
)
def test_point_format_round_trips(vals):
    z = np.array([complex(vals[0], vals[1]), complex(vals[2], vals[3])])
    back = cli.parse_point(cli.format_point(z), 2)
    assert np.all(back == z)


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------


def test_canonical_json_sorts_and_formats():
    a = cli.canonical_json({"b": 1, "a": [True, None, 0.1]})
    b = cli.canonical_json({"a": [True, None, 0.1], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert "0.10000000000000001" in a
    assert a.endswith("\n")


def test_canonical_json_handles_numpy_scalars():
    text = cli.canonical_json(
        {"i": np.int64(3), "x": np.float64(0.5), "b": np.bool_(True), "e": {}, "l": []}
    )
    assert '"i": 3' in text
    assert '"x": 0.5' in text
    assert '"b": true' in text
    assert "{}" in text and "[]" in text


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(ValueError):
        cli.canonical_json({"z": 1 + 2j})


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_two_point_writes_artifacts(tmp_path, ball_file, capsys):
    out = tmp_path / "run"
    code = cli.main(
        ["solve", ball_file, "--from", "0.3,0", "--to", "0,0.3",
         "--N", "32", "--output", str(out)]
    )
    assert code == 0
    assert "certificates pass" in capsys.readouterr().out
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["kind"] == "lempert"
    expect = ball_formula(np.array([0.3, 0]), np.array([0, 0.3]))
    assert metrics["value"] == pytest.approx(expect, abs=1e-10)
    assert metrics["certificate_gap"] < 1e-9
    bundle = json.loads((out / "disc.json").read_text())
    assert bundle["certificates"]["passed"] is True
    assert bundle["mode"] == "two-point"
    rows = read_csv(out / "trace.csv")
    assert rows[0] == list(cli._TRACE_COLUMNS)
    assert len(rows) >= 2


def test_solve_is_bit_identical_across_runs(tmp_path, ball_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(
            ["solve", ball_file, "--from", "0.1,0.2i", "--to=-0.2,0.1",
             "--N", "32", "--output", str(out)]
        )
        assert code == 0
        outs.append(
            tuple((out / f).read_bytes() for f in ("metrics.json", "disc.json", "trace.csv"))
        )
    assert outs[0] == outs[1]


def test_solve_direction_mode(tmp_path, ball_file):
    out = tmp_path / "kr"
    code = cli.main(
        ["solve", ball_file, "--from", "0,0", "--dir", "0.3,0.4i",
         "--N", "16", "--output", str(out)]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["kind"] == "kobayashi"
    assert metrics["value"] == pytest.approx(0.5, abs=1e-10)


def test_solve_csv_format(tmp_path, ball_file):
    out = tmp_path / "csvrun"
    code = cli.main(
        ["solve", ball_file, "--from", "0.3,0", "--to", "0,0.3",
         "--N", "16", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    rows = read_csv(out / "metrics.csv")
    assert rows[0][:3] == ["kind", "value", "xi_or_lambda"]
    assert rows[1][0] == "lempert"
    assert not (out / "metrics.json").exists()


def test_solve_rejects_bad_inputs(tmp_path, ball_file, capsys):
    bad_n = cli.main(["solve", ball_file, "--from", "0,0", "--to", "0.3,0", "--N", "4"])
    assert bad_n == 1
    bad_point = cli.main(["solve", ball_file, "--from", "0.3 0.1", "--to", "0,0"])
    assert bad_point == 1
    outside = cli.main(["solve", ball_file, "--from", "2,0", "--to", "0,0"])
    assert outside == 1
    missing = cli.main(["solve", str(tmp_path / "nope.json"), "--from", "0,0", "--to", "0.3,0"])
    assert missing == 1
    capsys.readouterr()


@pytest.mark.parametrize("tol", [["--tol-res", "0"], ["--tol-res=-1e-10"], ["--tol-res", "nan"]],
                         ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("command", [["solve", "--from", "0,0", "--to", "0.3,0"],
                                     ["table", "--grid", "0,0;0.3,0"]], ids=["solve", "table"])
def test_nonpositive_tol_res_exits_one(tmp_path, ball_file, capsys, command, tol):
    out = tmp_path / "out"
    argv = command[:1] + [ball_file] + command[1:] + tol + ["--output", str(out)]
    assert cli.main(argv) == 1
    assert "tol_res must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_solve_usage_errors_exit_one(ball_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", ball_file, "--from", "0,0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["solve", ball_file, "--from", "0,0", "--to", "0.3,0", "--dir", "1,0"]
        )
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_solve_writes_partial_trace_on_stall(tmp_path, ball_file, monkeypatch, capsys):
    rows = [
        {"t": 0.1, "step": 0.1, "newton_iters": 3, "residual": 1e-11,
         "xi_or_lambda": 0.4, "holder_C": 1.2},
        {"t": 0.2, "step": 0.1, "newton_iters": 4, "residual": 2e-11,
         "xi_or_lambda": 0.41, "holder_C": 1.21},
    ]
    path = PathResult(disc=None, t_reached=0.2, trace=rows)

    def stall(*args, **kwargs):
        raise StepUnderflow("continuation stalled at t = 0.2", path=path)

    monkeypatch.setattr(cli, "lempert_distance", stall)
    out = tmp_path / "stall"
    code = cli.main(
        ["solve", ball_file, "--from", "0.1,0", "--to", "0.3,0", "--output", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "partial trace" in err
    got = read_csv(out / "trace.csv")
    assert len(got) == 3
    assert float(got[1][0]) == 0.1
    assert got[1][2] == "3"


def test_solve_prints_exactly_the_failed_certificate(tmp_path, ball_file, monkeypatch, capsys):
    def one_failure(*args):
        return dataclasses.replace(verify_E(*args), wind_G=0)

    monkeypatch.setattr(metrics, "verify_E", one_failure)
    out = tmp_path / "fail"
    code = cli.main(
        ["solve", ball_file, "--from", "0.3,0", "--to", "0,0.3", "--N", "16", "--output", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "certificates FAIL" in captured.out
    assert captured.err.splitlines() == ["violated: wind G(z, .) = 0, expected 1"]
    # an uncertified run still writes every artifact
    assert sorted(os.listdir(out)) == ["disc.json", "metrics.json", "trace.csv"]
    bundle = json.loads((out / "disc.json").read_text())
    assert bundle["certificates"]["passed"] is False


def shift_poincare(monkeypatch, shift):
    """Move every Poincare distance, and so the Lempert certificate gap, by shift."""
    real = metrics.poincare
    monkeypatch.setattr(metrics, "poincare", lambda a, b: real(a, b) + shift)


def test_solve_fails_a_certificate_gap_above_the_tolerance(tmp_path, ball_file, monkeypatch, capsys):
    shift_poincare(monkeypatch, 10 * metrics.GAP_TOL)
    out = tmp_path / "gap"
    code = cli.main(
        ["solve", ball_file, "--from", "0.3,0", "--to", "0,0.3", "--N", "16", "--output", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "certificates FAIL" in captured.out
    assert captured.err.splitlines() == ["violated: certificate gap 1.000e-06 exceeds 1e-07"]
    assert json.loads((out / "disc.json").read_text())["certificates"]["passed"] is True


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.fixture
def solved_bundle(tmp_path, ball_file):
    out = tmp_path / "solve_out"
    code = cli.main(
        ["solve", ball_file, "--from", "0.3,0", "--to", "0,0.3",
         "--N", "32", "--output", str(out)]
    )
    assert code == 0
    return str(out / "disc.json")


def test_verify_passes_on_solver_output(tmp_path, ball_file, solved_bundle, capsys):
    out = tmp_path / "verify_out"
    code = cli.main(["verify", ball_file, solved_bundle, "--output", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["geodesic_consistency"] < 1e-9
    on_disk = json.loads((out / "verify.json").read_text())
    assert on_disk == payload


def test_verify_accepts_probe_override(ball_file, solved_bundle, capsys):
    code = cli.main(["verify", ball_file, solved_bundle, "--probe", "0.1,0.1"])
    assert code == 0
    capsys.readouterr()


def test_verify_rejects_exterior_probe(ball_file, solved_bundle, capsys):
    code = cli.main(["verify", ball_file, solved_bundle, "--probe", "3,0"])
    assert code == 1
    capsys.readouterr()


def test_verify_flags_corrupted_bundle(tmp_path, ball_file, solved_bundle, capsys):
    bundle = json.loads(open(solved_bundle, encoding="utf-8").read())
    for entry in bundle["f"]:
        if entry["k"] == 1:
            entry["re"][1] += 0.05
    bad = write_json(tmp_path / "bad_disc.json", bundle)
    code = cli.main(["verify", ball_file, bad])
    assert code == 2
    captured = capsys.readouterr()
    assert "violated" in captured.err
    assert "boundary defect" in captured.err


def test_verify_prints_exactly_the_failed_certificate(
    tmp_path, ball_file, solved_bundle, monkeypatch, capsys
):
    def one_failure(*args):
        return dataclasses.replace(verify_E(*args), wind_G=0)

    monkeypatch.setattr(cli, "verify_E", one_failure)
    out = tmp_path / "verify_out"
    code = cli.main(["verify", ball_file, solved_bundle, "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["violated: wind G(z, .) = 0, expected 1"]
    payload = json.loads((out / "verify.json").read_text())
    assert payload["verify_E"]["passed"] is False
    assert payload["passed"] is False


def test_verify_fails_a_geodesic_consistency_gap(
    tmp_path, ball_file, solved_bundle, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "geodesic_consistency", lambda disc, pairs: 1e-6)
    out = tmp_path / "verify_out"
    code = cli.main(["verify", ball_file, solved_bundle, "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["violated: geodesic consistency gap 1.000e-06 exceeds 1e-09"]
    payload = json.loads((out / "verify.json").read_text())
    assert payload["verify_E"]["passed"] is True
    assert payload["passed"] is False


def test_verify_reports_a_solver_failure(tmp_path, ball_file, solved_bundle, monkeypatch, capsys):
    def stall(disc, pairs):
        raise NewtonFailure("left inverse polish stalled at |G| = 1.000e-03")

    monkeypatch.setattr(cli, "geodesic_consistency", stall)
    out = tmp_path / "verify_out"
    code = cli.main(["verify", ball_file, solved_bundle, "--output", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "verification failed: left inverse polish stalled at |G| = 1.000e-03"
    ]
    assert not out.exists()


def test_verify_rejects_malformed_bundle(tmp_path, ball_file, capsys):
    bad = write_json(tmp_path / "broken.json", {"mode": "two-point"})
    code = cli.main(["verify", ball_file, bad])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_verify_rejects_non_finite_coefficient(tmp_path, ball_file, solved_bundle, value, capsys):
    with open(solved_bundle, encoding="utf-8") as fh:
        bundle = json.load(fh)
    bundle["f"][1]["re"][0] = value
    bad = write_json(tmp_path / "bad_disc.json", bundle)
    out = tmp_path / "verify_out"
    code = cli.main(["verify", ball_file, bad, "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: malformed disc bundle" in captured.err
    assert "non-finite coefficient at k = 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_verify_rejects_a_duplicate_coefficient(tmp_path, ball_file, solved_bundle, capsys):
    with open(solved_bundle, encoding="utf-8") as fh:
        bundle = json.load(fh)
    (k1,) = [e for e in bundle["f"] if e["k"] == 1]
    bundle["f"].append(dict(k1, re=[0.0 for _ in k1["re"]]))
    bad = write_json(tmp_path / "dup_disc.json", bundle)
    code = cli.main(["verify", ball_file, bad])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: malformed disc bundle" in err
    assert "k = 1 is listed twice" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_grid_is_symmetric(tmp_path, ball_file, capsys):
    out = tmp_path / "table_out"
    code = cli.main(
        ["table", ball_file, "--grid", "0,0; 0.3,0; 0,0.2i",
         "--N", "24", "--output", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    rows = read_csv(out / "table.csv")
    assert rows[0] == list(cli._TABLE_COLUMNS)
    assert len(rows) == 10
    vals = {}
    for row in rows[1:]:
        i, j = int(row[0]), int(row[1])
        vals[(i, j)] = row
        if i == j:
            assert row[4] == "0"
            assert row[6] == ""  # no certificate columns on the diagonal
        else:
            assert row[11] == "true"
    for i in range(3):
        for j in range(3):
            if i != j:
                assert float(vals[(i, j)][4]) == pytest.approx(
                    float(vals[(j, i)][4]), abs=1e-8
                )
    boundary = read_csv(out / "boundary.csv")
    assert boundary[0][:3] == ["i", "j", "theta"]
    assert len(boundary) == 1 + 6 * 128


def test_table_marks_a_certificate_gap_above_the_tolerance(
    tmp_path, ball_file, monkeypatch, capsys
):
    shift_poincare(monkeypatch, 10 * metrics.GAP_TOL)
    code = cli.main(
        ["table", ball_file, "--grid", "0,0;0.3,0", "--N", "16", "--output", str(tmp_path)]
    )
    # an uncertified cell is a row, not a failure of the table
    assert code == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "table.csv")
    assert [row[11] for row in rows[1:]] == ["", "false", "false", ""]


def reference_csv(header, rows) -> bytes:
    """The CSV rule cell by cell: empty for None and "", true/false for
    bools, integers as integers, floats at 17 significant digits, strings
    as they are, quoted by csv.writer, rows ended by CRLF."""

    def cell(v):
        if v is None or isinstance(v, str):
            return "" if v is None else v
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *([cell(v) for v in row] for row in rows)])
    return buf.getvalue().encode()


def test_csv_cells_keep_their_bytes(tmp_path):
    header = ["i", "j", "a", "b", "c", "p", "q", "n", "e", "z"]
    row = [0, np.int64(3), 0.1, np.float64(-2.5e-300), np.float32(0.1), True,
           np.bool_(False), None, "", "0.3+0.1i,-0.2-0i"]
    cli._write_csv(str(tmp_path / "cells.csv"), header, [row])
    expected = (b"i,j,a,b,c,p,q,n,e,z\r\n0,3,0.10000000000000001,-2.5e-300,"
                b'0.10000000149011612,true,false,,,"0.3+0.1i,-0.2-0i"\r\n')
    assert (tmp_path / "cells.csv").read_bytes() == expected == reference_csv(header, [row])
    for bad in (float("nan"), np.float64("inf"), -math.inf):
        with pytest.raises(ValueError, match="refusing to print non-finite value"):
            cli._write_csv(str(tmp_path / "bad.csv"), header[:1], [[bad]])


def test_table_csvs_keep_their_bytes(tmp_path, ball_file, monkeypatch, capsys):
    """table.csv and boundary.csv hold exactly what the CSV rule makes of
    their rows: the diagonal's empty cells, the indices, the passed flags
    and the boundary samples."""
    written = {}
    real = cli._write_csv

    def keep(path, header, rows):
        written[os.path.basename(path)] = (header, rows := list(rows))
        real(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", keep)
    out = tmp_path / "table_out"
    assert cli.main(["table", ball_file, "--grid", "0,0; 0.3,0; 0,0.2i",
                     "--N", "24", "--output", str(out)]) == 0
    capsys.readouterr()
    assert sorted(written) == ["boundary.csv", "table.csv"]
    for name, (header, rows) in written.items():
        assert (out / name).read_bytes() == reference_csv(header, rows)


def test_table_empty_grid(tmp_path, ball_file, capsys):
    out = tmp_path / "empty_out"
    code = cli.main(["table", ball_file, "--grid", ";", "--output", str(out)])
    assert code == 0
    assert "0 rows" in capsys.readouterr().out
    assert len(read_csv(out / "table.csv")) == 1
    assert len(read_csv(out / "boundary.csv")) == 1


def test_table_takes_no_format_flag(tmp_path, ball_file, capsys):
    out = tmp_path / "table_out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", ball_file, "--grid", "0,0;0.3,0", "--format", "csv",
                  "--output", str(out)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()


def test_table_rejects_exterior_grid_point(ball_file, capsys):
    code = cli.main(["table", ball_file, "--grid", "0,0;1.5,0"])
    assert code == 1
    assert "grid point #1" in capsys.readouterr().err


def test_table_writes_partial_results_on_failure(tmp_path, ball_file, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise StepUnderflow("forced stall", path=None)

    monkeypatch.setattr(cli, "lempert_distance", explode)
    out = tmp_path / "partial_out"
    code = cli.main(
        ["table", ball_file, "--grid", "0,0;0.3,0", "--output", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "cell (0,1) failed" in err
    assert "partial table" in err
    rows = read_csv(out / "table.csv")
    assert len(rows) == 2  # header plus the completed diagonal cell
    assert rows[1][0] == "0" and rows[1][1] == "0"


def test_table_stops_at_the_failing_cell(tmp_path, ball_file, monkeypatch, capsys):
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NoConvergence("forced failure")
        return orig(*args, **kwargs)

    orig = cli.lempert_distance
    monkeypatch.setattr(cli, "lempert_distance", fail_first)
    out = tmp_path / "stop_out"
    code = cli.main(
        ["table", ball_file, "--grid", "0,0;0.3,0;0,0.2i;0.1,0.1",
         "--N", "24", "--output", str(out)]
    )
    assert code == 2
    assert "cell (0,1) failed" in capsys.readouterr().err
    assert len(calls) == 1  # none of the 11 cells after (0,1) is solved
    assert read_csv(out / "table.csv") == [
        list(cli._TABLE_COLUMNS),
        ["0", "0", "0+0i,0+0i", "0+0i,0+0i", "0", "0", "", "", "", "", "", ""],
    ]


def test_table_rescales_the_domain_once(tmp_path, monkeypatch, capsys):
    # r = sum x_d^2 + 1/2 sum x_d^4 - 1: a polynomial domain, so its
    # dilation runs the ray gauge, once for all the table's cells
    monomials = [{"c": -1.0, "p": [0, 0, 0, 0]}]
    for d in range(4):
        for power, c in ((2, 1.0), (4, 0.5)):
            p = [0, 0, 0, 0]
            p[d] = power
            monomials.append({"c": c, "p": p})
    quartic = write_json(tmp_path / "quartic.json", {"n": 2, "kind": "polynomial", "monomials": monomials})
    calls = []

    def counted(self):
        calls.append(1)
        return orig(self)

    orig = DomainSpec.boundary_radius_range
    monkeypatch.setattr(DomainSpec, "boundary_radius_range", counted)
    code = cli.main(
        ["table", quartic, "--grid", "0,0;0.1,0", "--N", "32", "--output", str(tmp_path / "out")]
    )
    assert code == 0
    capsys.readouterr()
    assert len(read_csv(tmp_path / "out" / "table.csv")) == 5
    assert calls == [1]


# ---------------------------------------------------------------------------
# certificates are computed once per solved disc
# ---------------------------------------------------------------------------


def count_verify_E(monkeypatch):
    calls = []
    for mod in (cli, metrics):
        def counted(*args, _orig=mod.verify_E, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(mod, "verify_E", counted)
    return calls


@pytest.mark.parametrize("target", ["--to=0,0.3", "--dir=0.3,0.4i"])
def test_solve_verifies_the_disc_once(tmp_path, ball_file, monkeypatch, target):
    calls = count_verify_E(monkeypatch)
    code = cli.main(
        ["solve", ball_file, "--from", "0.3,0", target,
         "--N", "16", "--output", str(tmp_path)]
    )
    assert code == 0
    assert len(calls) == 1
    bundle = json.loads((tmp_path / "disc.json").read_text())
    assert bundle["certificates"]["passed"] is True


def test_table_verifies_each_disc_once(tmp_path, ball_file, monkeypatch, capsys):
    calls = count_verify_E(monkeypatch)
    code = cli.main(
        ["table", ball_file, "--grid", "0,0;0.3,0;0,0.2i",
         "--N", "16", "--output", str(tmp_path)]
    )
    assert code == 0
    capsys.readouterr()
    assert len(calls) == 6  # one per off-diagonal cell


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def scalar_symbol_entries():
    # beta(t) = 2 + cos t, positive on the circle; entries are row-major
    # flat coefficient lists, matching FourierDisc.to_entries
    return [
        {"k": -1, "re": [0.5], "im": [0.0]},
        {"k": 0, "re": [2.0], "im": [0.0]},
        {"k": 1, "re": [0.5], "im": [0.0]},
    ]


def test_factorize_scalar_symbol(tmp_path, capsys):
    sym = write_json(tmp_path / "beta.json", {"m": 1, "entries": scalar_symbol_entries()})
    out = tmp_path / "fac_out"
    code = cli.main(["factorize", sym, "--output", str(out)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads((out / "factor.json").read_text())
    assert payload["m"] == 1
    assert payload["residual"] < 1e-10
    assert payload["det_winding"] == 0
    assert payload["min_det"] > 0
    # H(1)^2 must reproduce beta(1) = 3
    h1 = sum(e["re"][0] + 1j * e["im"][0] for e in payload["H"])
    assert abs(h1) ** 2 == pytest.approx(3.0, abs=1e-10)


def test_factorize_rejects_bad_symbols(tmp_path, capsys):
    missing = write_json(tmp_path / "nom.json", {"entries": []})
    assert cli.main(["factorize", missing]) == 1
    zero = write_json(tmp_path / "zero.json", {"m": 0, "entries": []})
    assert cli.main(["factorize", zero]) == 1
    # cos t changes sign on the circle, so there is no factorization
    neg = write_json(
        tmp_path / "neg.json",
        {"m": 1, "entries": [
            {"k": -1, "re": [0.5], "im": [0.0]},
            {"k": 1, "re": [0.5], "im": [0.0]},
        ]},
    )
    assert cli.main(["factorize", neg]) == 1
    capsys.readouterr()


def test_factorize_rejects_non_finite_entry(tmp_path, capsys):
    entries = scalar_symbol_entries()
    entries[1]["re"][0] = float("nan")
    sym = write_json(tmp_path / "beta.json", {"m": 1, "entries": entries})
    out = tmp_path / "fac_out"
    assert cli.main(["factorize", sym, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: malformed symbol entries" in err
    assert "non-finite coefficient at k = 0" in err
    assert not out.exists()


def test_factorize_rejects_a_fractional_frequency(tmp_path, capsys):
    entries = scalar_symbol_entries()
    entries[2]["k"] = 2.5
    sym = write_json(tmp_path / "beta.json", {"m": 1, "entries": entries})
    out = tmp_path / "fac_out"
    assert cli.main(["factorize", sym, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: malformed symbol entries" in err
    assert "k = 2.5 is not an integer" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "m, flags, message",
    [
        (2.5, [], "m must be a 64-bit integer, got 2.5"),
        ("2", [], "m must be a 64-bit integer, got '2'"),
        (True, [], "m must be a 64-bit integer, got True"),
        (1, ["--tol-res", "0"], "tol_res must be positive"),
        (1, ["--tol-res=-1"], "tol_res must be positive"),
        (1, ["--tol-res", "nan"], "tol_res must be positive"),
        (1, ["--n-work", "0"], "n_work must be positive, got 0"),
        (1, ["--n-work=-3"], "n_work must be positive, got -3"),
    ],
    ids=["fractional-m", "string-m", "bool-m", "zero-tol", "negative-tol", "nan-tol",
         "zero-n-work", "negative-n-work"],
)
def test_factorize_rejects_bad_input(tmp_path, capsys, m, flags, message):
    sym = write_json(tmp_path / "beta.json", {"m": m, "entries": scalar_symbol_entries()})
    out = tmp_path / "fac_out"
    assert cli.main(["factorize", sym, "--output", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# domain gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"n": 2, "kind": "ellipsoid", "semiaxes": [float("nan"), 2.0]}, "semiaxes"),
        ({"n": 2, "kind": "ellipsoid", "semiaxes": [float("inf"), 2.0]}, "semiaxes"),
        ({"n": 2, "kind": "ball", "z0": [float("nan"), 0, 0, 0]}, "z0"),
        (
            {"n": 2, "kind": "polynomial", "monomials": [
                {"c": 1.0, "p": [2, 0, 0, 0]},
                {"c": float("nan"), "p": [0, 2, 0, 0]},
                {"c": 1.0, "p": [0, 0, 2, 0]},
                {"c": 1.0, "p": [0, 0, 0, 2]},
                {"c": -1.0, "p": [0, 0, 0, 0]},
            ]},
            "monomial #1: coefficient c",
        ),
    ],
)
def test_solve_rejects_non_finite_domain_fields(tmp_path, spec, field, capsys):
    dom = write_json(tmp_path / "dom.json", spec)
    out = tmp_path / "out"
    code = cli.main(
        ["solve", dom, "--from", "0.2,0.3", "--to=-0.1,0.4i", "--output", str(out)]
    )
    assert code == 1
    assert f"error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_a_wrong_typed_domain_field_without_a_traceback(tmp_path):
    # a separate process, so that an uncaught exception would show as the
    # interpreter's traceback and exit status
    monomials = [{"c": None, "p": [2, 0, 0, 0]}, {"c": -1.0, "p": [0, 0, 0, 0]}]
    dom = write_json(tmp_path / "dom.json", {"n": 2, "kind": "polynomial", "monomials": monomials})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "geodisc.cli", "solve", dom, "--from", "0.1,0", "--to", "0.2,0",
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: monomial #0: coefficient c")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_solve_rejects_nonconvex_polynomial_domain(tmp_path, capsys):
    # (|z1|^2 - 1)^2 + |z2|^2 - 1/2 bounds a tube around |z1| = 1, which is
    # not even convex; only declared-interior bookkeeping keeps 0 out
    tube = write_json(
        tmp_path / "tube.json",
        {
            "n": 2,
            "kind": "polynomial",
            "z0": [1.0, 0.0, 0.0, 0.0],
            "monomials": [
                {"c": 1.0, "p": [4, 0, 0, 0]},
                {"c": 2.0, "p": [2, 2, 0, 0]},
                {"c": 1.0, "p": [0, 4, 0, 0]},
                {"c": -2.0, "p": [2, 0, 0, 0]},
                {"c": -2.0, "p": [0, 2, 0, 0]},
                {"c": 1.0, "p": [0, 0, 2, 0]},
                {"c": 1.0, "p": [0, 0, 0, 2]},
                {"c": 0.5, "p": [0, 0, 0, 0]},
            ],
        },
    )
    code = cli.main(["solve", tube, "--from", "1,0", "--to", "1.2,0"])
    assert code == 1
    assert "convexity" in capsys.readouterr().err
