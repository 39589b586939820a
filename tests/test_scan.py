import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import heckescan.scan
from heckescan.hecke import t2_matrix, trace_t2
from heckescan.modforms import dim_cusp
from heckescan.scan import (
    RecordFileError,
    WeightRecord,
    compute_record,
    detect_duplicates,
    drop_torn_tail,
    load_records,
    parse_record_line,
    record_line,
    run_scan,
    save_records,
)


# Stand-ins for compute_record in the pool's worker processes.  They are
# module-level so the pool can pickle them, and read their settings from
# the environment, which every worker inherits.
_real_compute_record = compute_record


def _fail_first_weight(k):
    """Leaves a marker per started weight; the largest (first submitted)
    weight raises at once, the others take 50 ms each."""
    open(os.path.join(os.environ["HECKESCAN_TEST_MARKS"], str(k)), "w").close()
    if k == int(os.environ["HECKESCAN_TEST_FAIL_AT"]):
        raise RuntimeError(f"injected failure at weight {k}")
    time.sleep(0.05)
    return WeightRecord(k, dim_cusp(k), 0)


def _die_at_weight(k):
    """The worker process exits without a word at one weight."""
    if k == int(os.environ["HECKESCAN_TEST_DIE_AT"]):
        os._exit(1)
    return _real_compute_record(k)


def _assert_complete_records(path):
    text = path.read_text()
    assert text == "" or text.endswith("\n")
    for rec in load_records(path):
        assert rec.dim == dim_cusp(rec.k)


def test_compute_record():
    assert compute_record(12) == WeightRecord(12, 1, -24)
    assert compute_record(2) == WeightRecord(2, 0, 0)


def test_detect_duplicates_synthetic_collision():
    records = [WeightRecord(100, 3, 5), WeightRecord(200, 3, 5), WeightRecord(300, 3, 6)]
    assert detect_duplicates(records) == ((100, 200),)


def test_detect_duplicates_ignores_empty_spaces():
    records = [WeightRecord(2, 0, 0), WeightRecord(4, 0, 0), WeightRecord(6, 0, 0)]
    assert detect_duplicates(records) == ()


def test_detect_duplicates_triple_collision():
    records = [WeightRecord(k, 2, 9) for k in (10, 20, 30)]
    assert detect_duplicates(records) == ((10, 20), (10, 30), (20, 30))


def test_round_trip(tmp_path):
    path = tmp_path / "records.tsv"
    records = [compute_record(k) for k in range(2, 22, 2)]
    save_records(records, path)
    assert load_records(path) == sorted(records, key=lambda r: r.k)


def test_load_rejects_duplicate_weight(tmp_path):
    path = tmp_path / "records.tsv"
    path.write_text("12\t1\t-24\n14\t0\t0\n12\t1\t-24\n")
    with pytest.raises(RecordFileError) as err:
        load_records(path)
    assert err.value.line_no == 3
    assert "duplicate weight 12" in str(err.value)


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "records.tsv"
    path.write_text("12\t1\t-24\n16 1 216\n")
    with pytest.raises(RecordFileError) as err:
        load_records(path)
    assert err.value.line_no == 2


def test_load_rejects_bad_trace(tmp_path):
    path = tmp_path / "records.tsv"
    path.write_text("12\t1\tminus24\n")
    with pytest.raises(RecordFileError, match="trace"):
        load_records(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "records.tsv"
    path.write_text("")
    assert load_records(path) == []


def test_scan_2_to_30(tmp_path):
    out = tmp_path / "scan.tsv"
    report = run_scan(2, 30, workers=1, output_path=out)
    assert report.records_count == 15
    assert report.duplicates == ()
    for rec in report.records:
        assert (rec.dim, rec.trace) == trace_t2(rec.k), rec.k
    assert load_records(out) == list(report.records)


def test_scan_single_weight(tmp_path):
    report = run_scan(12, 12, workers=4, output_path=tmp_path / "w12.tsv")
    assert report.records == (WeightRecord(12, 1, -24),)


def test_scan_below_first_cusp_form(tmp_path):
    report = run_scan(2, 10, workers=1, output_path=tmp_path / "low.tsv")
    assert all(rec.dim == 0 for rec in report.records)
    assert report.duplicates == ()


def test_scan_without_output_path():
    report = run_scan(10, 14, workers=1)
    assert [r.k for r in report.records] == [10, 12, 14]


def test_scan_rejects_reversed_range():
    with pytest.raises(ValueError):
        run_scan(30, 2)


def test_scan_determinism_across_worker_counts(tmp_path):
    r1 = run_scan(2, 60, workers=1, output_path=tmp_path / "a.tsv")
    r2 = run_scan(2, 60, workers=2, output_path=tmp_path / "b.tsv")
    assert r1.records == r2.records


def test_resume_skips_existing(tmp_path):
    out = tmp_path / "resume.tsv"
    first = run_scan(2, 20, workers=1, output_path=out)
    assert first.computed == 10
    again = run_scan(2, 40, workers=1, output_path=out, resume=True)
    assert again.resumed == 10
    assert again.computed == 10
    full = run_scan(2, 40, workers=1, output_path=tmp_path / "full.tsv")
    assert again.records == full.records


def test_resume_after_interruption_matches_uninterrupted(tmp_path):
    out = tmp_path / "interrupted.tsv"
    # simulate a run cut short after 4 records
    for k in (24, 22, 20, 18):
        rec = compute_record(k)
        with open(out, "a") as fh:
            fh.write(f"{rec.k}\t{rec.dim}\t{rec.trace}\n")
    resumed = run_scan(12, 30, workers=1, output_path=out, resume=True)
    clean = run_scan(12, 30, workers=1, output_path=tmp_path / "clean.tsv")
    assert resumed.records == clean.records


def test_resume_rejects_corrupted_file(tmp_path):
    out = tmp_path / "bad.tsv"
    out.write_text("12\t1\t-24\nnot a record\n")
    with pytest.raises(RecordFileError) as err:
        run_scan(2, 30, workers=1, output_path=out, resume=True)
    assert err.value.line_no == 2


def test_parse_rejects_a_record_without_its_newline():
    assert parse_record_line("62\t4\t1146312000\n") == WeightRecord(62, 4, 1146312000)
    with pytest.raises(RecordFileError, match="torn"):
        parse_record_line("62\t4\t1146312", "r.tsv", 7)


def test_drop_torn_tail_keeps_complete_files(tmp_path):
    path = tmp_path / "r.tsv"
    for text in ("", "12\t1\t-24\n", "12\t1\t-24\n14\t0\t0\n"):
        path.write_text(text)
        assert drop_torn_tail(path) is None
        assert path.read_text() == text
    path.write_text("1246")
    assert drop_torn_tail(path) == "1246"
    assert path.read_text() == ""


def test_resume_recovers_a_record_torn_at_every_offset(tmp_path):
    # A crash mid-write leaves a prefix of the last record.  Every prefix
    # must be refused by load_records, cut off on resume, and its weight
    # recomputed, so the file ends up exactly as an uninterrupted scan.
    clean = run_scan(12, 62, workers=1)
    head = "".join(record_line(r) for r in clean.records if r.k != 62)
    last = record_line(clean.records[-1])
    assert last == "62\t4\t1146312000\n"
    path = tmp_path / "torn.tsv"
    for cut in range(len(last) + 1):
        path.write_text(head + last[:cut])
        torn = last[:cut] if 0 < cut < len(last) else None
        if torn:
            with pytest.raises(RecordFileError, match="torn"):
                load_records(path)
        report = run_scan(12, 62, workers=1, output_path=path, resume=True)
        assert report.torn_tail == torn, cut
        assert report.records == clean.records, cut
        assert report.computed == (0 if cut == len(last) else 1), cut
        assert load_records(path) == list(clean.records), cut
        assert path.read_text().endswith("\n")


def test_appending_scan_cuts_a_torn_tail_first(tmp_path):
    # without resume the new records are still appended; they must not
    # join onto a torn line
    path = tmp_path / "torn.tsv"
    path.write_text("12\t1\t-24\n16\t1\t21")
    report = run_scan(18, 20, workers=1, output_path=path)
    assert report.torn_tail == "16\t1\t21"
    assert [r.k for r in load_records(path)] == [12, 18, 20]


def test_scan_refuses_to_store_a_weight_twice(tmp_path):
    # a second scan without resume over weights the file already holds
    # must stop before computing or appending anything
    path = tmp_path / "twice.tsv"
    first = run_scan(12, 16, workers=1, output_path=path)
    before = path.read_bytes()
    for k_min, k_max, workers in ((12, 16, 1), (16, 30, 2), (2, 12, 1)):
        with pytest.raises(ValueError, match="--resume"):
            run_scan(k_min, k_max, workers=workers, output_path=path)
        assert path.read_bytes() == before
    assert load_records(path) == list(first.records)
    again = run_scan(12, 16, workers=1, output_path=path, resume=True)
    assert (again.resumed, again.computed) == (3, 0)
    assert path.read_bytes() == before


def test_resume_rejects_contradictory_dimension(tmp_path):
    out = tmp_path / "wrongdim.tsv"
    out.write_text("12\t3\t-24\n")
    with pytest.raises(ValueError, match="dimension formula"):
        run_scan(2, 30, workers=1, output_path=out, resume=True)


def test_resume_ignores_records_outside_range(tmp_path):
    out = tmp_path / "range.tsv"
    save_records([compute_record(k) for k in (12, 100)], out)
    report = run_scan(2, 20, workers=1, output_path=out, resume=True)
    assert all(2 <= r.k <= 20 for r in report.records)
    assert report.resumed == 1  # only k=12 lies in range


def test_scan_oracle_consistency_random_sample(tmp_path):
    import random

    report = run_scan(2, 120, workers=2, output_path=tmp_path / "o.tsv")
    by_k = {r.k: r for r in report.records}
    rng = random.Random(17)
    for k in rng.sample(sorted(by_k), 20):
        m = t2_matrix(k)
        assert by_k[k].trace == m.trace, k
        assert by_k[k].dim == m.dim, k


def test_dim_monotone_under_weight_plus_12():
    for k in range(2, 201, 2):
        assert dim_cusp(k + 12) >= dim_cusp(k)


def test_failed_weight_cancels_the_queued_ones(tmp_path, monkeypatch):
    marks = tmp_path / "started"
    marks.mkdir()
    monkeypatch.setenv("HECKESCAN_TEST_MARKS", str(marks))
    monkeypatch.setenv("HECKESCAN_TEST_FAIL_AT", "400")
    monkeypatch.setattr(heckescan.scan, "compute_record", _fail_first_weight)
    out = tmp_path / "failed.tsv"
    with pytest.raises(RuntimeError, match="injected failure at weight 400"):
        run_scan(2, 400, workers=2, output_path=out)
    started = sorted(int(name) for name in os.listdir(marks))
    assert 400 in started
    # 200 weights queued; only those already handed to the two workers run
    assert len(started) <= 20, started
    _assert_complete_records(out)
    assert {r.k for r in load_records(out)} < set(started)


def test_killed_worker_leaves_complete_records_and_resume_finishes(tmp_path, monkeypatch):
    out = tmp_path / "killed.tsv"
    monkeypatch.setenv("HECKESCAN_TEST_DIE_AT", "60")
    monkeypatch.setattr(heckescan.scan, "compute_record", _die_at_weight)
    with pytest.raises(BrokenProcessPool):
        run_scan(12, 90, workers=2, output_path=out)
    _assert_complete_records(out)
    assert 60 not in {r.k for r in load_records(out)}

    monkeypatch.setattr(heckescan.scan, "compute_record", _real_compute_record)
    resumed = run_scan(12, 90, workers=2, output_path=out, resume=True)
    clean_path = tmp_path / "clean.tsv"
    clean = run_scan(12, 90, workers=1, output_path=clean_path)
    assert resumed.records == clean.records
    assert resumed.resumed + resumed.computed == len(clean.records)
    # the same records, line for line, in completion order
    assert sorted(out.read_text().splitlines(True)) == sorted(clean_path.read_text().splitlines(True))
