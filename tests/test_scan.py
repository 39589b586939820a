import os
import re
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import heckescan.scan
from heckescan.hecke import t2_matrix, trace_t2
from heckescan.modforms import dim_cusp
from heckescan.scan import (
    RecordFileError,
    WeightRecord,
    _batches,
    compute_record,
    detect_duplicates,
    load_records,
    parse_record_line,
    record_line,
    run_scan,
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
    records = [compute_record(k) for k in range(20, 0, -2)]
    path.write_text("".join(map(record_line, records)))
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
    # the pool writes its records in the serial order, largest weight
    # first, so the file is the same byte for byte at every worker count
    r1 = run_scan(2, 360, workers=1, output_path=tmp_path / "1.tsv")
    expected = (tmp_path / "1.tsv").read_bytes()
    for workers in (2, 3):
        path = tmp_path / f"{workers}.tsv"
        assert run_scan(2, 360, workers=workers, output_path=path).records == r1.records
        assert path.read_bytes() == expected, workers


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


# lines int() reads but record_line never writes
NON_CANONICAL_LINES = (
    "24\t2\t1_080\n",
    "24\t2\t 1080\n",
    "+24\t2\t1080\n",
    "024\t2\t1080\n",
    "24\t2\t-0\n",
    "24\t2\t1080 \n",
)


@pytest.mark.parametrize("line", NON_CANONICAL_LINES)
def test_load_refuses_a_non_canonical_record(tmp_path, line):
    path = tmp_path / "r.tsv"
    path.write_text("12\t1\t-24\n" + line)
    with pytest.raises(RecordFileError, match="not a record as a scan writes it") as err:
        load_records(path)
    assert err.value.line_no == 2


def test_resume_cuts_only_a_torn_tail(tmp_path):
    # complete records stay as they are, byte for byte, and the weights
    # they lack are appended after them
    path = tmp_path / "r.tsv"
    for text, appended in (
        ("", "14\t0\t0\n12\t1\t-24\n"),
        ("12\t1\t-24\n", "14\t0\t0\n"),
        ("12\t1\t-24\n14\t0\t0\n", ""),
    ):
        path.write_text(text)
        report = run_scan(12, 14, workers=1, output_path=path, resume=True)
        assert report.torn_tail is None, text
        assert path.read_text() == text + appended
    # a file holding only a torn record is cut to nothing before appending
    path.write_text("1246")
    report = run_scan(12, 14, workers=1, output_path=path, resume=True)
    assert report.torn_tail == "1246"
    assert path.read_text() == "14\t0\t0\n12\t1\t-24\n"


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


def test_refused_scan_leaves_the_file_byte_identical(tmp_path):
    # every refusal comes before the torn tail is cut
    path = tmp_path / "r.tsv"
    for head, resume, reason in (
        ("12\t1\t-24\n", False, "--resume"),
        ("13\t0\t0\n", True, "odd weight"),
        ("24\t1\t1080\n", True, "dimension formula"),
        ("12\t1\n", True, "3 tab-separated fields"),
    ):
        before = (head + "16\t1\t21").encode()
        path.write_bytes(before)
        with pytest.raises(ValueError, match=reason):
            run_scan(12, 16, workers=1, output_path=path, resume=resume)
        assert path.read_bytes() == before, reason


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


def test_resume_rejects_a_stored_odd_weight(tmp_path):
    out = tmp_path / "odd.tsv"
    out.write_text("13\t0\t0\n12\t1\t-24\n")
    before = out.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"{out}: stored record of odd weight 13")):
        run_scan(12, 16, workers=1, output_path=out, resume=True)
    assert out.read_bytes() == before


def test_resume_keeps_negative_even_weights(tmp_path):
    out = tmp_path / "neg.tsv"
    run_scan(-10, -2, workers=1, output_path=out)
    again = run_scan(-10, 12, workers=1, output_path=out, resume=True)
    assert (again.resumed, again.computed) == (5, 7)


def test_resume_ignores_records_outside_range(tmp_path):
    out = tmp_path / "range.tsv"
    out.write_text(record_line(compute_record(12)) + record_line(compute_record(100)))
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


def test_batches_cover_the_weights_largest_first_within_the_heaviest_cost():
    for k_min, k_max in ((2, 10), (12, 16), (12, 90), (2, 360), (2, 1000), (900, 1000)):
        todo = list(range(k_max - k_max % 2, k_min - 1, -2))
        batches = _batches(todo)
        assert [k for batch in batches for k in batch] == todo
        heaviest = max(dim_cusp(k) ** 3 for k in todo)
        assert max(sum(dim_cusp(k) ** 3 for k in batch) for batch in batches) <= heaviest
        # each batch would have overflowed with the next one's first weight
        for batch, after in zip(batches, batches[1:]):
            assert sum(dim_cusp(k) ** 3 for k in batch + after[:1]) > heaviest
    # on the weights acceptance 2 re-scans for its speedup, a task is a weight
    assert _batches(list(range(1000, 899, -2))) == [[k] for k in range(1000, 899, -2)]


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


def test_failed_write_cancels_the_queued_weights(tmp_path, monkeypatch):
    marks = tmp_path / "started"
    marks.mkdir()
    monkeypatch.setenv("HECKESCAN_TEST_MARKS", str(marks))
    monkeypatch.setenv("HECKESCAN_TEST_FAIL_AT", "0")  # no weight of 2..400 fails
    monkeypatch.setattr(heckescan.scan, "compute_record", _fail_first_weight)
    calls = []

    def record_line_failing_second(rec):
        # only this process formats records, never a worker
        calls.append(rec.k)
        if len(calls) == 2:
            raise OSError("injected write failure")
        return record_line(rec)

    monkeypatch.setattr(heckescan.scan, "record_line", record_line_failing_second)
    out = tmp_path / "failed_write.tsv"
    with pytest.raises(OSError, match="injected write failure"):
        run_scan(2, 400, workers=2, output_path=out)
    started = sorted(int(name) for name in os.listdir(marks))
    # 200 weights queued; only those already handed to the two workers run
    assert len(started) <= 20, started
    _assert_complete_records(out)
    assert [r.k for r in load_records(out)] == [400]


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
    # the same records, line for line; the resumed weights follow the
    # ones written before the worker died
    assert sorted(out.read_text().splitlines(True)) == sorted(clean_path.read_text().splitlines(True))


def test_pool_size_is_capped_by_the_weights_left(tmp_path, monkeypatch):
    # the pool forks all its workers at its first submit, so a stand-in
    # records the size asked for and computes each batch in this process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, batches):
            return map(fn, batches)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(heckescan.scan, "ProcessPoolExecutor", InlinePool)
    out = tmp_path / "o.tsv"
    assert [r.k for r in run_scan(12, 16, workers=500, output_path=out).records] == [12, 14, 16]
    resumed = run_scan(12, 22, workers=500, output_path=out, resume=True)
    assert [r.k for r in resumed.records] == list(range(12, 23, 2)) and resumed.computed == 3
    assert [r.k for r in run_scan(24, 30, workers=2).records] == [24, 26, 28, 30]
    # one batch, [[14, 12]], is computed in this process: no pool at all
    assert [r.k for r in run_scan(12, 14, workers=2).records] == [12, 14]
    # _batches([16, 14, 12]) is [[16, 14], [12]]: two tasks, so two workers
    assert sizes == [2, 3, 2]
