import decimal
import json
import math
import os

import mpmath
import pytest

import heckescan.bounds
import heckescan.primes
import heckescan.scan
from heckescan.cli import dispatch, emit_theta_plot
from heckescan.primes import primorial_row, sieve
from heckescan.scan import MAEDA_CAVEAT, compute_record, load_records
from test_scan import NON_CANONICAL_LINES

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
    assert capsys.readouterr().err == "error: the two weights must differ\n"


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


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_charpoly_rejects_a_prime_budget_below_one_at_degree_1(budget, capsys):
    argv = ["charpoly", "--weight", "12", "--check-irreducible", "--prime-budget", budget]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: prime budget must be positive\n")


@pytest.mark.parametrize("argv", [
    ["charpoly", "--weight", "24", "--prime-budget", "-3"],
    ["charpoly", "--weight", "2", "--check-irreducible", "--prime-budget", "0"],
    ["charpoly", "--weight", "24", "--check-irreducible", "--prime-budget", "0", "--json"],
])
def test_charpoly_rejects_a_prime_budget_below_one_in_every_mode(argv, monkeypatch, capsys):
    # refused before any charpoly is computed, also where no certificate runs
    import heckescan.cli

    def no_charpoly(*args, **kwargs):
        raise AssertionError("charpoly computed before the budget was checked")

    monkeypatch.setattr(heckescan.cli, "charpoly_t2", no_charpoly)
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: prime budget must be positive\n")


def test_charpoly_prints_coefficients_past_the_int_string_limit(monkeypatch, capsys):
    # str(int) refuses more than 4300 digits; the constant term at k = 600
    # already has more
    import heckescan.cli
    from heckescan.hecke import CharPoly

    big = 7 * (10**5000 - 1) // 9  # 5000 sevens
    poly = CharPoly(600, (1, -big, big))
    monkeypatch.setattr(heckescan.cli, "charpoly_t2", lambda k: poly)
    digits = str(decimal.Decimal(big))
    assert len(digits) == 5000 and set(digits) == {"7"}
    assert dispatch(["charpoly", "--weight", "600"]) == 0
    head, coeffs = capsys.readouterr().out.splitlines()
    assert head == f"k=600 degree=2 charpoly: x^2 - {digits}*x + {digits}"
    assert [int(decimal.Decimal(c)) for c in coeffs.split()[1:]] == list(poly.coeffs)
    assert dispatch(["charpoly", "--weight", "600", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [int(decimal.Decimal(c)) for c in data["coeffs"]] == list(poly.coeffs)


def test_vmbasis_text(capsys):
    assert dispatch(["vmbasis", "--weight", "16"]) == 0
    out = capsys.readouterr().out
    assert "k=16 dim=1 prec=2" in out
    assert "f_1: 0 1 216" in out


def test_vmbasis_rejects_odd_weight(capsys):
    assert dispatch(["vmbasis", "--weight", "13"]) == 2


def test_vmbasis_rejects_low_precision(capsys):
    assert dispatch(["vmbasis", "--weight", "24", "--prec", "3"]) == 2


@pytest.mark.parametrize("weight", ["14", "24"])  # an empty space and a nonempty one
def test_vmbasis_rejects_negative_precision(weight, capsys):
    assert dispatch(["vmbasis", "--weight", weight, "--prec", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: precision -1 below 2*dim")


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


@pytest.mark.parametrize("level", ["0", "-5"])
def test_bound_rejects_a_level_below_one(level, capsys):
    # the level check comes before the non-divisor search, text and JSON
    for argv in (["bound", "--level", level], ["bound", "--level", level, "--json"]):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: level must be a positive integer\n")


def test_bound_level_past_4300_digits(capsys):
    # P_2000 = 2 * 3 * ... * 17389 has 7483 digits, past where int() and
    # str() stop; the next prime 17393 is the smallest non-divisor
    primes = [n for n in range(2, 17394) if all(n % p for p in range(2, math.isqrt(n) + 1))]
    assert len(primes) == 2001
    level = math.prod(primes[:2000])
    text = str(decimal.Decimal(level))
    assert len(text) == 7483
    assert dispatch(["bound", "--level", text]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"N={text} p=17393 murty_bound={17393**2} main_bound=")
    assert dispatch(["bound", "--level", text, "--json"]) == 0
    data = json.loads(capsys.readouterr().out, parse_int=lambda s: int(decimal.Decimal(s)))
    assert (data["level"], data["p"], data["murty_bound"]) == (level, 17393, 17393**2)


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


def test_refused_scan_leaves_a_torn_tail_in_place(tmp_path, capsys):
    # the scan is refused for a stored weight of its range; the torn last
    # line must still be there, and no warning claims it was cut
    out = tmp_path / "scan.tsv"
    before = b"12\t1\t-24\n14\t0\t0\n16\t1\t21"
    out.write_bytes(before)
    assert dispatch(["scan", "--min", "12", "--max", "16", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "already holds weight 12" in captured.err
    assert "torn" not in captured.err
    assert out.read_bytes() == before


def test_scan_resume_onto_a_stored_odd_weight_exits_2(tmp_path, capsys):
    out = tmp_path / "odd.tsv"
    out.write_text("13\t0\t0\n12\t1\t-24\n")
    assert dispatch(["scan", "--min", "12", "--max", "16", "--out", str(out), "--resume", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "odd weight 13" in captured.err
    assert out.read_text() == "13\t0\t0\n12\t1\t-24\n"


@pytest.mark.parametrize("line", NON_CANONICAL_LINES)
def test_scan_resume_onto_a_non_canonical_record_exits_2(tmp_path, capsys, line):
    out = tmp_path / "r.tsv"
    before = ("12\t1\t-24\n" + line).encode()
    out.write_bytes(before)
    assert dispatch(["scan", "--min", "12", "--max", "26", "--out", str(out), "--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{out}:2: not a record as a scan writes it" in captured.err
    assert out.read_bytes() == before


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
        raise ArithmeticError("p-adic lifting residual not divisible by the prime")

    monkeypatch.setattr(heckescan.cli, "charpoly_t2", broken)
    assert dispatch(["charpoly", "--weight", "24"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exactness check failed: p-adic lifting residual not divisible by the prime\n"
    )


def test_theta_near_tie_left_undecided_exits_3(dusart_tie_coeffs, undecidable_enclosures, monkeypatch, capsys):
    monkeypatch.setattr(heckescan.bounds, "DUSART_COEFF", dusart_tie_coeffs[0])
    assert dispatch(["theta-check", "--limit", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exactness check failed: interval enclosure undecided")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("count", [1, 5, 1000])
def test_primorial_table_rows_match_primorial_row(count, capsys):
    table = sieve(8000)  # p_1001 = 7927
    want = [primorial_row(k, table) for k in range(1, count + 1)]
    assert dispatch(["primorial-table", "--count", str(count)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k\tp_k\tgap\ttheta(p_k)"
    assert lines[1:] == [f"{r.k}\t{r.p_k}\t{r.gap}\t{mpmath.nstr(r.log_primorial, 20)}" for r in want]
    assert dispatch(["primorial-table", "--count", str(count), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [
        {"k": r.k, "p_k": r.p_k, "gap": r.gap, "log_primorial": mpmath.nstr(r.log_primorial, 20)}
        for r in want
    ]


def test_primorial_table_ignores_mpmath_global_precision(monkeypatch, capsys):
    # the sieve limit once came from mpmath.log at the caller's mp.prec,
    # and at 2 bits it fell short of p_5001
    argv = ["primorial-table", "--count", "5000", "--json"]
    assert dispatch(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(mpmath.mp, "prec", 2)
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == want


def test_primorial_table_count_0_exits_2(capsys):
    assert dispatch(["primorial-table", "--count", "0"]) == 2
    assert capsys.readouterr().err == "error: --count must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["theta-check", "--limit", "100000000000000000000"],
        ["primorial-table", "--count", "100000000000000000000"],
        ["theta-plot", "--max", "inf", "--out", "-"],
        ["theta-plot", "--max", "1e200", "--out", "-"],
        ["theta-plot", "--max", "nan", "--out", "-"],
    ],
)
def test_oversized_input_exits_2_without_traceback(argv, capsys):
    # each raises (OverflowError, or ValueError for nan) before it allocates
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exactness" not in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["theta-check", "--limit", "1000000000000"],
        ["primorial-table", "--count", "1000"],
        ["theta-plot", "--max", "40", "--out", "-"],
    ],
)
def test_sieve_too_large_for_memory_exits_2_without_traceback(argv, monkeypatch, capsys):
    # the sieve's flags raise MemoryError as a too-large bytearray would,
    # without allocating anything
    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(heckescan.primes, "_sieve_flags", no_memory)
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not enough memory for this input\n"


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


def test_scan_onto_an_unwritable_path_exits_2_before_computing(tmp_path, monkeypatch, capsys):
    # a directory, and a file in a directory that does not exist; neither
    # depends on permission bits, which the superuser ignores
    def computed(k):
        raise AssertionError(f"weight {k} computed before the output was opened")

    monkeypatch.setattr(heckescan.scan, "compute_record", computed)
    missing = tmp_path / "missing" / "r.tsv"
    for out in (tmp_path, missing):
        for jobs in ("1", "2"):
            argv = ["scan", "--min", "12", "--max", "40", "--jobs", jobs, "--out", str(out)]
            assert dispatch(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert str(out) in captured.err
            assert len(captured.err.splitlines()) == 1
            assert "Traceback" not in captured.err
    assert not missing.parent.exists()
