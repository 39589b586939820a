import json
import os

import heckescan.scan
from heckescan.cli import dispatch, emit_theta_plot
from heckescan.primes import sieve
from heckescan.scan import MAEDA_CAVEAT, compute_record, load_records

_real_compute_record = compute_record


def _die_at_weight(k):
    """Stand-in for compute_record: the pool's worker process exits
    without a word at one weight (module-level, so the pool can pickle it)."""
    if k == int(os.environ["HECKESCAN_TEST_DIE_AT"]):
        os._exit(1)
    return _real_compute_record(k)


def test_trace_text(capsys):
    assert dispatch(["trace", "--weight", "12"]) == 0
    assert capsys.readouterr().out == "k=12 dim=1 trace=-24\n"


def test_trace_json(capsys):
    assert dispatch(["trace", "--weight", "16", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"k": 16, "dim": 1, "trace": "216"}


def test_trace_empty_space(capsys):
    assert dispatch(["trace", "--weight", "2"]) == 0
    assert capsys.readouterr().out == "k=2 dim=0 trace=0\n"


def test_exceptional_set_output(capsys):
    assert dispatch(["exceptional-set"]) == 0
    values = [int(v) for v in capsys.readouterr().out.split()]
    expected = (
        list(range(1, 5)) + list(range(6, 13)) + list(range(30, 34)) + list(range(210, 245))
    )
    assert values == expected


def test_distinguish_finds_n2(capsys):
    assert dispatch(["distinguish", "--weight1", "12", "--weight2", "16"]) == 0
    out = capsys.readouterr().out
    assert "n=2" in out and "-24" in out and "216" in out


def test_distinguish_same_weights_is_usage_error(capsys):
    assert dispatch(["distinguish", "--weight1", "12", "--weight2", "12"]) == 2


def test_distinguish_not_found_within_1_exits_1(capsys):
    # both eigenforms are normalized, so a_1 agrees and n=1 cannot separate
    assert dispatch(["distinguish", "--weight1", "12", "--weight2", "16", "--max-n", "1"]) == 1
    assert "no difference" in capsys.readouterr().out


def test_distinguish_rejects_multidimensional_space(capsys):
    assert dispatch(["distinguish", "--weight1", "24", "--weight2", "12"]) == 2


def test_charpoly_with_check(capsys):
    assert dispatch(["charpoly", "--weight", "24", "--check-irreducible"]) == 0
    out = capsys.readouterr().out
    assert "x^2 - 1080*x - 20468736" in out
    assert "irreducible" in out


def test_charpoly_degree_zero(capsys):
    assert dispatch(["charpoly", "--weight", "2", "--check-irreducible"]) == 0
    assert "degree 0" in capsys.readouterr().out


def test_charpoly_json(capsys):
    assert dispatch(["charpoly", "--weight", "24", "--check-irreducible", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"] == ["1", "-1080", "-20468736"]
    assert data["verdict"]["kind"] == "irreducible"


def test_vmbasis_text(capsys):
    assert dispatch(["vmbasis", "--weight", "16"]) == 0
    out = capsys.readouterr().out
    assert "k=16 dim=1 prec=2" in out
    assert "f_1: 0 1 216" in out


def test_vmbasis_rejects_odd_weight(capsys):
    assert dispatch(["vmbasis", "--weight", "13"]) == 2


def test_vmbasis_rejects_low_precision(capsys):
    assert dispatch(["vmbasis", "--weight", "24", "--prec", "3"]) == 2


def test_vmbasis_larger_precision_for_inspection(capsys):
    assert dispatch(["vmbasis", "--weight", "12", "--prec", "6"]) == 0
    out = capsys.readouterr().out
    assert "prec=6" in out
    assert "f_1: 0 1 -24 252 -1472 4830 -6048" in out


def test_bound_json(capsys):
    assert dispatch(["bound", "--level", "210", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p"] == 11
    assert data["murty_bound"] == 121
    assert data["main_bound"].startswith("161.14")


def test_theta_check_small(capsys):
    assert dispatch(["theta-check", "--limit", "10000"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_theta_plot_stdout(capsys):
    assert dispatch(["theta-plot", "--max", "2", "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,theta_2x,y_line"
    assert lines[1] == "0.0,0.0,0.0"
    # left limit then jump at x = 1: theta goes 0 -> log 2
    assert lines[2].startswith("1.0,0.0,")
    assert lines[3].startswith("1.0,0.693147180559945")
    # left limit then jump at x = 1.5: log 2 -> log 6
    assert lines[4].startswith("1.5,0.693147180559945")
    assert lines[5].startswith("1.5,1.791759469228055")


def test_theta_plot_initial_segment_only(capsys):
    assert dispatch(["theta-plot", "--max", "0.5", "--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["x,theta_2x,y_line", "0.0,0.0,0.0", "0.5,0.0,0.5"]


def test_theta_plot_file_output(tmp_path, capsys):
    target = tmp_path / "plot.csv"
    assert dispatch(["theta-plot", "--max", "3", "--out", str(target)]) == 0
    body = target.read_text()
    assert body.startswith("x,theta_2x,y_line\n")
    assert emit_theta_plot(3, sieve(8)) == body


def test_scan_cli(tmp_path, capsys):
    out = tmp_path / "scan.tsv"
    assert dispatch(["scan", "--min", "2", "--max", "30", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "15 records" in text
    assert "no duplicate" in text


def test_scan_cli_json(tmp_path, capsys):
    out = tmp_path / "scan.tsv"
    rc = dispatch(["scan", "--min", "2", "--max", "30", "--jobs", "2", "--out", str(out), "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["records"] == 15
    assert data["duplicates"] == []


def test_scan_cli_reports_duplicates_with_exit_1(tmp_path, capsys):
    # seed the file with a synthetic colliding pair (correct dims for
    # weights 100 and 102, equal traces), then resume over just those
    out = tmp_path / "dup.tsv"
    out.write_text("100\t8\t5\n102\t8\t5\n")
    rc = dispatch([
        "scan", "--min", "100", "--max", "102", "--out", str(out), "--resume",
    ])
    assert rc == 1
    text = capsys.readouterr().out
    assert "k=100 and k=102" in text
    assert MAEDA_CAVEAT in text


def test_scan_cli_caveat_absent_for_dim_le_1(tmp_path, capsys):
    out = tmp_path / "low.tsv"
    assert dispatch(["scan", "--min", "2", "--max", "16", "--out", str(out)]) == 0
    assert MAEDA_CAVEAT not in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    assert dispatch(["nonsense"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert dispatch(["trace"]) == 2


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0


def test_version_exits_0(capsys):
    import mpmath

    assert dispatch(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("heckescan ")
    assert len(out.splitlines()) == 1
    try:
        import gmpy2
    except ImportError:
        assert "no gmpy2" in out
    else:
        assert f"gmpy2 {gmpy2.version()}" in out
    assert f"mpmath {mpmath.__version__} {mpmath.libmp.BACKEND} backend" in out


def test_scan_resume_reports_a_torn_tail(tmp_path, capsys):
    out = tmp_path / "scan.tsv"
    out.write_text("12\t1\t-24\n16\t1\t21")
    assert dispatch(["scan", "--min", "12", "--max", "16", "--out", str(out), "--resume", "--json"]) == 0
    captured = capsys.readouterr()
    assert "torn last record '16\\t1\\t21'" in captured.err
    data = json.loads(captured.out)
    assert (data["resumed"], data["computed"]) == (1, 2)
    assert out.read_text() == "12\t1\t-24\n16\t1\t216\n14\t0\t0\n"


def test_scan_twice_without_resume_exits_2(tmp_path, capsys):
    out = tmp_path / "f.tsv"
    argv = ["scan", "--min", "12", "--max", "16", "--out", str(out)]
    assert dispatch(argv) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert dispatch(argv) == 2
    assert "--resume" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert dispatch(argv + ["--resume"]) == 0
    assert out.read_bytes() == before


def test_exactness_failure_exits_3_without_traceback(monkeypatch, capsys):
    import heckescan.cli

    def broken(k):
        raise ArithmeticError("characteristic polynomial trace not divisible by 2")

    monkeypatch.setattr(heckescan.cli, "charpoly_t2", broken)
    assert dispatch(["charpoly", "--weight", "24"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exactness check failed: characteristic polynomial trace not divisible by 2\n"
    )


def test_killed_worker_exits_2_and_resume_finishes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "killed.tsv"
    argv = ["scan", "--min", "12", "--max", "60", "--jobs", "2", "--out", str(out)]
    monkeypatch.setenv("HECKESCAN_TEST_DIE_AT", "40")
    monkeypatch.setattr(heckescan.scan, "compute_record", _die_at_weight)
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a worker process died")
    assert "--resume" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err

    monkeypatch.setattr(heckescan.scan, "compute_record", _real_compute_record)
    assert dispatch(argv + ["--resume"]) == 0
    assert "25 records" in capsys.readouterr().out
    assert sorted(r.k for r in load_records(out)) == list(range(12, 61, 2))
