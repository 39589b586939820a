"""Weight-range driver: compute (dim, trace) of T2 for every even weight
in a range, with crash-tolerant line-append persistence, resume, optional
parallel workers, and duplicate detection on the resulting pairs.

Record file format: one record per line, "k<TAB>dim<TAB>trace", the trace
in base 10 with an optional leading minus, plain text, no padding.  Every
record ends with its newline; a final line without one is a write cut
short by a crash, never a record.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from .hecke import trace_t2
from .modforms import dim_cusp

MAEDA_CAVEAT = (
    "Note: for spaces of dimension > 1, distinct (dim, trace) pairs separate "
    "eigenforms only if the characteristic polynomial of T2 on each space is "
    "irreducible over the rationals; that irreducibility is a conjecture, "
    "verified numerically in bounded weight ranges rather than proved."
)


@dataclass(frozen=True)
class WeightRecord:
    k: int
    dim: int
    trace: int


class RecordFileError(ValueError):
    """A record file that cannot be trusted: malformed line, bad integer,
    or a weight stored twice.  Carries the offending line number."""

    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


def compute_record(k):
    """The record of weight k: (dim, trace) of T2.  The scan's worker
    processes call it too, so the record must pickle, as a frozen
    dataclass does."""
    d, t = trace_t2(k)
    return WeightRecord(k, d, t)


def record_line(rec):
    return f"{rec.k}\t{rec.dim}\t{rec.trace}\n"


def parse_record_line(line, path="<memory>", line_no=0):
    if not line.endswith("\n"):
        raise RecordFileError(path, line_no, f"torn record without its newline: {line[:40]!r}")
    parts = line[:-1].split("\t")
    if len(parts) != 3:
        raise RecordFileError(path, line_no, f"expected 3 tab-separated fields, got {len(parts)}")
    try:
        k = int(parts[0])
        dim = int(parts[1])
    except ValueError:
        raise RecordFileError(path, line_no, f"weight/dim not integers: {parts[0]!r}, {parts[1]!r}") from None
    try:
        trace = int(parts[2])
    except ValueError:
        raise RecordFileError(path, line_no, f"trace not an integer literal: {parts[2][:40]!r}") from None
    if dim < 0:
        raise RecordFileError(path, line_no, f"negative dimension {dim}")
    return WeightRecord(k, dim, trace)


def load_records(path):
    """Parse a record file; sorted by weight.  Malformed lines and
    duplicated weights are errors naming the line, never skipped."""
    by_k = {}
    with open(path, encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            rec = parse_record_line(line, path, line_no)
            if rec.k in by_k:
                raise RecordFileError(path, line_no, f"duplicate weight {rec.k}")
            by_k[rec.k] = rec
    return sorted(by_k.values(), key=lambda r: r.k)


def drop_torn_tail(path):
    """Truncate the file after its last newline.  Returns the text cut off
    (a record torn by a crash mid-write), or None when the file already
    ends with a complete record or is empty."""
    with open(path, "rb+") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return None
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return None
        fh.seek(0)
        data = fh.read()
        keep = data.rfind(b"\n") + 1
        fh.truncate(keep)
    return data[keep:].decode("ascii", "replace")


def save_records(records, path):
    """Write a record file from scratch (normalized order by weight)."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in sorted(records, key=lambda r: r.k):
            fh.write(record_line(rec))


def detect_duplicates(records):
    """Unordered weight pairs sharing (dim, trace) with dim >= 1; empty
    spaces carry no eigenforms and are excluded."""
    groups = {}
    for rec in records:
        if rec.dim >= 1:
            groups.setdefault((rec.dim, rec.trace), []).append(rec.k)
    pairs = []
    for ks in groups.values():
        if len(ks) > 1:
            ks.sort()
            for i in range(len(ks)):
                for j in range(i + 1, len(ks)):
                    pairs.append((ks[i], ks[j]))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class ScanReport:
    k_min: int
    k_max: int
    records: tuple[WeightRecord, ...]
    duplicates: tuple[tuple[int, int], ...]
    computed: int
    resumed: int
    elapsed_seconds: float
    torn_tail: str | None

    @property
    def records_count(self):
        return len(self.records)

    @property
    def seconds_per_weight(self):
        return self.elapsed_seconds / self.computed if self.computed else 0.0


def run_scan(k_min, k_max, workers=1, output_path=None, resume=False):
    """Compute records for every even weight in [k_min, k_max].

    Weights are started largest first, in this process when workers is 1
    and in a pool of that many processes otherwise.  Records are appended
    to output_path as they complete (flushed per line, so an interrupted
    scan loses at most the records in flight).  When a weight raises, or
    a worker dies (BrokenProcessPool), the weights still queued are
    cancelled and the error propagates; the records written so far stay,
    and a resumed scan finishes the range.  A torn last line (no
    newline) is cut off before anything is appended to the file, and the
    report carries the cut text.  With resume, weights already present
    in the file are kept, not recomputed (a torn one is recomputed).
    Without resume, a file that already holds a weight of the range is
    refused before anything is computed, so a scan never stores a weight
    twice.  In both modes stored dimensions are re-checked against the
    formula.  The report covers exactly the requested range, sorted by
    weight, with duplicate detection on the (dim, trace) pairs.
    """
    if k_min > k_max:
        raise ValueError(f"empty weight range: {k_min} > {k_max}")
    if workers < 1:
        raise ValueError("workers must be positive")
    evens = [k for k in range(k_min, k_max + 1) if k % 2 == 0]
    existing = {}
    torn_tail = None
    if output_path and os.path.exists(output_path):
        torn_tail = drop_torn_tail(output_path)
        for rec in load_records(output_path):
            if rec.dim != dim_cusp(rec.k):
                raise ValueError(
                    f"{output_path}: stored dim {rec.dim} for weight {rec.k} "
                    f"contradicts the dimension formula ({dim_cusp(rec.k)})"
                )
            if k_min <= rec.k <= k_max:
                existing[rec.k] = rec
        if existing and not resume:
            raise ValueError(
                f"{output_path} already holds weight {min(existing)} of {k_min}..{k_max}; "
                "use --resume to keep its records, or write to a new file"
            )
    todo = sorted((k for k in evens if k not in existing), reverse=True)

    computed = []
    out = open(output_path, "a", encoding="ascii") if output_path else None
    t0 = time.monotonic()
    try:
        if workers == 1 or len(todo) <= 1:
            for k in todo:
                _emit(compute_record(k), computed, out)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(compute_record, k) for k in todo]
                try:
                    for fut in as_completed(futures):
                        _emit(fut.result(), computed, out)
                except BaseException:
                    # Weights still queued would only be computed and
                    # discarded; the ones already running finish first.
                    pool.shutdown(cancel_futures=True)
                    raise
    finally:
        if out:
            out.close()
    elapsed = time.monotonic() - t0

    final = list(existing.values()) + computed
    final.sort(key=lambda r: r.k)
    resumed = len(evens) - len(todo)
    return ScanReport(
        k_min, k_max, tuple(final), detect_duplicates(final), len(computed), resumed, elapsed,
        torn_tail,
    )


def _emit(rec, computed, out):
    computed.append(rec)
    if out:
        out.write(record_line(rec))
        out.flush()
