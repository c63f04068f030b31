"""Command-line surface: schemas, determinism, exit codes, error records."""

import json

import pytest

import diskspec.cli as cli
from diskspec import RefinementError, count_disk, count_lattice, zeros_up_to
from diskspec.cli import RunConfig, main
from diskspec.errors import DomainError


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


def test_zeros_deterministic_across_runs_and_threads(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    main(["zeros", "--n-max", "6", "--mu", "40", "--out", str(a), "--threads", "1"])
    main(["zeros", "--n-max", "6", "--mu", "40", "--out", str(b), "--threads", "1"])
    main(["zeros", "--n-max", "6", "--mu", "40", "--out", str(c), "--threads", "3"])
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
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


def test_scan_threads_byte_identical(tmp_path):
    a = tmp_path / "t1.csv"
    b = tmp_path / "t4.csv"
    main(["scan", "--mu-min", "30", "--mu-max", "90", "--step", "10",
          "--out", str(a), "--threads", "1"])
    main(["scan", "--mu-min", "30", "--mu-max", "90", "--step", "10",
          "--out", str(b), "--threads", "4"])
    assert a.read_bytes() == b.read_bytes()


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
    def boom(mu, threads=1):
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


def test_bad_output_directory_is_domain_error(capsys):
    code = main(["zeros", "--n-max", "1", "--mu", "10",
                 "--out", "/no_such_dir_diskspec/z.csv"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["count", "--mu", "abc"])
    with pytest.raises(SystemExit):
        main([])


def test_threads_env_default(monkeypatch, capsys):
    monkeypatch.setenv("DISKSPEC_THREADS", "2")
    assert main(["count", "--mu", "30"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("DISKSPEC_THREADS")
    assert main(["count", "--mu", "30"]) == 0
    assert capsys.readouterr().out == with_env


def test_invalid_threads_env_is_domain_error(monkeypatch, capsys):
    monkeypatch.setenv("DISKSPEC_THREADS", "lots")
    assert main(["count", "--mu", "10"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_run_config_validation():
    with pytest.raises(DomainError):
        RunConfig(threads=0)
    with pytest.raises(DomainError):
        RunConfig(threads=512)
    with pytest.raises(DomainError):
        RunConfig(out="/no_such_dir_diskspec/out.csv")
    assert RunConfig().threads == 1


def test_scan_writes_to_stdout_without_out(capsys):
    assert main(["scan", "--mu-min", "10", "--mu-max", "14", "--step", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mu,n_disk,n_lattice,weyl2,remainder,diff"
    assert len(lines) == 4
