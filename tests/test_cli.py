"""Command-line surface: schemas, determinism, exit codes, error records."""

import json
import time

import pytest

import diskspec.cli as cli
from diskspec import RefinementError, count_disk, count_lattice, zeros_up_to
from diskspec.cli import main


def test_count_emits_one_json_record(capsys):
    assert main(["count", "--mu", "25.3"]) == 0
    out = capsys.readouterr().out
    rec = json.loads(out)
    assert rec["mu"] == pytest.approx(25.3, abs=0.0)
    assert rec["n_disk"] == count_disk(25.3)
    assert rec["n_lattice"] == count_lattice(25.3)
    assert rec["diff"] == rec["n_disk"] - rec["n_lattice"]
    assert rec["remainder"] == pytest.approx(rec["n_disk"] - rec["weyl2"], abs=0.0)


def test_zeros_csv_schema(tmp_path):
    path = tmp_path / "zeros.csv"
    assert main(["zeros", "--n-max", "3", "--mu", "20", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,k,x,residual"
    assert len(lines) > 1
    want = []
    for n in range(4):
        want.extend((z.n, z.k, z.x) for z in zeros_up_to(n, 20.0))
    got = []
    for line in lines[1:]:
        n_s, k_s, x_s, r_s = line.split(",")
        got.append((int(n_s), int(k_s), float(x_s)))
        assert float(r_s) <= 1e-10
    assert got == want


def test_zeros_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["zeros", "--n-max", "6", "--mu", "40", "--out", str(a)])
    main(["zeros", "--n-max", "6", "--mu", "40", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_scan_then_fit_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    assert main(
        ["scan", "--mu-min", "80", "--mu-max", "320", "--step", "12",
         "--out", str(csv_path)]
    ) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "mu,n_disk,n_lattice,weyl2,remainder,diff"
    assert len(lines) == 1 + 21

    assert main(["fit", "--in", str(csv_path), "--block", "2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec) == {"exponent", "log_amplitude", "r_squared", "n_points"}
    assert rec["n_points"] == 10
    assert rec["exponent"] < 1.0


def test_verify_suite_passes_and_emits_records(capsys):
    assert main(["verify", "--suite", "geometry"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 5
    for line in lines:
        rec = json.loads(line)
        assert rec["passed"] is True
        assert set(rec) == {"name", "passed", "measured", "expected", "tolerance"}


def test_verify_accepts_scale_override(capsys):
    assert main(["verify", "--suite", "sandwich", "--mu", "12"]) == 0
    assert all(json.loads(l)["passed"] for l in capsys.readouterr().out.splitlines())


def test_mollify_reports_holding_sandwich(capsys):
    assert main(["mollify", "--mu", "12"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["holds"] is True
    assert rec["n_minus"] <= rec["n_exact"] <= rec["n_plus"]
    assert rec["eps"] == pytest.approx(12.0 ** (-1.0 / 3.0), rel=1e-15)


def test_domain_error_exit_code_and_record(capsys):
    assert main(["count", "--mu", "-5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "scale" in err["message"]


def test_refinement_error_exit_code(monkeypatch, capsys):
    def boom(mu):
        raise RefinementError("synthetic failure")

    monkeypatch.setattr(cli, "count_sample", boom)
    assert main(["count", "--mu", "10"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RefinementError"


def test_fit_rejects_unknown_column(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    rows = [f"{mu},{mu},{mu},{mu},{mu},0" for mu in range(10, 30)]
    path.write_text("\n".join(["mu,n_disk,n_lattice,weyl2,remainder,diff"] + rows) + "\n")
    assert main(["fit", "--in", str(path), "--block", "2"]) == 0
    capsys.readouterr()
    assert main(["fit", "--in", str(path), "--block", "2", "--column", "bogus"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "bogus" in err["message"]


def test_missing_fit_input_is_domain_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["fit", "--in", str(missing)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_bad_output_directory_is_domain_error(tmp_path, capsys):
    scan_csv = tmp_path / "scan.csv"
    rows = [f"{mu},{mu},{mu},{mu},{mu},0" for mu in range(10, 30)]
    scan_csv.write_text("\n".join(["mu,n_disk,n_lattice,weyl2,remainder,diff"] + rows) + "\n")
    bad_out = ["--out", str(tmp_path / "no_such_dir" / "out.txt")]
    for argv in (
        ["zeros", "--n-max", "1", "--mu", "10"],
        ["scan", "--mu-min", "10", "--mu-max", "14", "--step", "2"],
        ["fit", "--in", str(scan_csv), "--block", "2"],
        ["mollify", "--mu", "12"],
    ):
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + bad_out) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["count", "--mu", "abc"])
    with pytest.raises(SystemExit):
        main([])


def test_no_thread_knob_in_the_cli(monkeypatch, capsys):
    monkeypatch.setenv("DISKSPEC_THREADS", "lots")
    assert main(["verify", "--suite", "geometry"]) == 0
    assert main(["count", "--mu", "10"]) == 0
    capsys.readouterr()
    for argv in (
        ["zeros", "--n-max", "1", "--mu", "10"],
        ["count", "--mu", "10"],
        ["scan", "--mu-min", "10", "--mu-max", "14", "--step", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == 2


def test_fit_rejects_non_finite_rows(tmp_path, capsys):
    header = "mu,n_disk,n_lattice,weyl2,remainder,diff"
    for column in (0, 3, 4):  # mu, weyl2, remainder
        for bad in ("nan", "inf", "-inf"):
            rows = [f"{mu},{mu},{mu},{mu},{mu},0" for mu in range(10, 30)]
            cells = rows[7].split(",")
            cells[column] = bad
            rows[7] = ",".join(cells)
            path = tmp_path / "scan.csv"
            path.write_text("\n".join([header] + rows) + "\n")
            assert main(["fit", "--in", str(path), "--block", "2"]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "DomainError"
            assert "finite" in err["message"]


def test_scan_writes_to_stdout_without_out(capsys):
    assert main(["scan", "--mu-min", "10", "--mu-max", "14", "--step", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mu,n_disk,n_lattice,weyl2,remainder,diff"
    assert len(lines) == 4


def test_zeros_stops_at_the_last_order_with_a_zero(capsys):
    assert main(["zeros", "--n-max", "20", "--mu", "20"]) == 0
    want = capsys.readouterr().out
    start = time.perf_counter()
    assert main(["zeros", "--n-max", "1000000000", "--mu", "20"]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == want
    assert elapsed < 1.0
