"""Weight-range driver: compute (dim, trace) of T2 for every even weight
in a range, with crash-tolerant line-append persistence, resume, optional
parallel workers, and duplicate detection on the resulting pairs.

Record file format: one record per line, "k<TAB>dim<TAB>trace", the trace
in base 10 with an optional leading minus, plain text, no padding.  Every
record ends with its newline; a final line without one is a write cut
short by a crash, never a record.  A line that is not exactly what
record_line writes for the integers it holds (a plus sign, -0, a leading
zero, an underscore or a blank) is refused, never read as a record.
"""

from __future__ import annotations

import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from typing import NamedTuple

from .hecke import trace_t2
from .modforms import dim_cusp

MAEDA_CAVEAT = (
    "Note: for spaces of dimension > 1, distinct (dim, trace) pairs separate "
    "eigenforms only if the characteristic polynomial of T2 on each space is "
    "irreducible over the rationals; that irreducibility is a conjecture, "
    "verified numerically in bounded weight ranges rather than proved."
)


class WeightRecord(NamedTuple):
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
    processes call it too, so the record must pickle, as a named tuple
    defined at module level does."""
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
    rec = WeightRecord(k, dim, trace)
    if record_line(rec) != line:
        raise RecordFileError(path, line_no, f"not a record as a scan writes it: {line[:40]!r}")
    return rec


def load_records(path):
    """Parse a record file; sorted by weight.  Malformed lines and
    duplicated weights are errors naming the line, never skipped."""
    with open(path, encoding="ascii") as fh:
        return _parse_records(fh, path)


def _parse_records(lines, path):
    by_k = {}
    for line_no, line in enumerate(lines, start=1):
        rec = parse_record_line(line, path, line_no)
        if rec.k in by_k:
            raise RecordFileError(path, line_no, f"duplicate weight {rec.k}")
        by_k[rec.k] = rec
    return sorted(by_k.values(), key=lambda r: r.k)


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


class ScanReport(NamedTuple):
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

    Weights are started largest first, in a pool of `workers` processes
    capped by the number of batches: runs of consecutive weights, each
    costing at most the heaviest weight (see _batches).  With one worker
    or one batch they are computed in this process instead.  Records are
    appended to output_path largest weight first in both cases, flushed
    per line, so the file's bytes depend on neither `workers` nor timing.
    An interrupted scan in this process loses at most the weight in
    flight.  In the pool a batch's records are written once it and every
    batch before it are done, so a finished batch waits in memory behind
    the oldest unfinished one, and an interrupted scan loses every batch
    started since the oldest one still running.  When a weight raises, a
    worker dies (BrokenProcessPool) or a write fails, the batches still
    queued are cancelled and the error propagates; the records written
    so far stay, and a resumed scan finishes the range.  A torn last line
    (no newline) is cut off before anything is appended to the file, and
    the report carries the cut text; a refused scan leaves the file as it
    was.  With resume, weights already present in the file are kept, not
    recomputed (a torn one is recomputed).
    Without resume, a file that already holds a weight of the range is
    refused before anything is computed, so a scan never stores a weight
    twice.  In both modes a stored odd weight is refused and stored
    dimensions are re-checked against the formula.  The report covers
    exactly the requested range, sorted by weight, with duplicate
    detection on the (dim, trace) pairs.
    """
    if k_min > k_max:
        raise ValueError(f"empty weight range: {k_min} > {k_max}")
    if workers < 1:
        raise ValueError("workers must be positive")
    evens = [k for k in range(k_min, k_max + 1) if k % 2 == 0]
    existing = {}
    torn_tail = None
    if output_path and os.path.exists(output_path):
        # Check the complete records first: a refused scan leaves the
        # file as it found it, torn tail included.
        with open(output_path, "rb") as fh:
            data = fh.read()
        keep = data.rfind(b"\n") + 1
        complete = io.TextIOWrapper(io.BytesIO(data[:keep]), encoding="ascii")
        for rec in _parse_records(complete, output_path):
            if rec.k % 2:
                raise ValueError(
                    f"{output_path}: stored record of odd weight {rec.k}; a scan writes even weights only"
                )
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
        if keep < len(data):
            os.truncate(output_path, keep)
            torn_tail = data[keep:].decode("ascii", "replace")
    todo = sorted((k for k in evens if k not in existing), reverse=True)
    batches = _batches(todo) if todo else []
    jobs = min(workers, len(batches))

    computed = []
    t0 = time.monotonic()
    with ExitStack() as stack:
        out = stack.enter_context(open(output_path, "a", encoding="ascii")) if output_path else None
        if jobs <= 1:
            stream = ([compute_record(k)] for k in todo)
        else:
            # map submits every batch, and the pool forks all its workers
            # at the first submit
            pool = ProcessPoolExecutor(max_workers=jobs)
            # on any exit, batches still queued are cancelled, not computed
            # and discarded; the ones already running finish first
            stack.callback(pool.shutdown, cancel_futures=True)
            stream = pool.map(_compute_batch, batches)
        for batch in stream:
            for rec in batch:
                computed.append(rec)
                if out:
                    out.write(record_line(rec))
                    out.flush()
    elapsed = time.monotonic() - t0

    final = list(existing.values()) + computed
    final.sort(key=lambda r: r.k)
    resumed = len(evens) - len(todo)
    return ScanReport(
        k_min, k_max, tuple(final), detect_duplicates(final), len(computed), resumed, elapsed,
        torn_tail,
    )


def _batches(todo):
    """Split todo, largest weight first, into runs of consecutive weights
    whose summed cost is at most that of the heaviest weight in todo, the
    cost of weight k being dim_cusp(k)^3.  The pool then handles fewer
    tasks, and no task outweighs the heaviest weight, so the makespan
    bound of largest-first scheduling still holds."""
    costs = [dim_cusp(k) ** 3 for k in todo]
    cap = max(costs)
    batches, run, total = [], [], 0
    for k, cost in zip(todo, costs):
        if run and total + cost > cap:
            batches.append(run)
            run, total = [], 0
        run.append(k)
        total += cost
    batches.append(run)
    return batches


def _compute_batch(batch):
    """The records of a batch, in a pool worker.  compute_record is looked
    up at call time, so a stand-in set on this module reaches the workers."""
    return [compute_record(k) for k in batch]
