"""Every record type of the package is a read-only named tuple that
survives pickling (the scan pool sends WeightRecords between processes)."""

import pickle

import pytest

from heckescan.bounds import bound_report, failure_intervals, verify_dusart
from heckescan.hecke import charpoly_t2, check_irreducible, t2_matrix
from heckescan.modforms import miller_basis
from heckescan.primes import primorial_row, sieve
from heckescan.scan import compute_record, run_scan


def _records():
    table = sieve(100)
    poly = charpoly_t2(36)
    return [
        (bound_report(210), ("level", "p", "murty_bound", "main_bound", "asymptotic")),
        (verify_dusart(table),
         ("name", "ok", "points_checked", "min_slack", "min_slack_x", "violations")),
        (failure_intervals(table)[0], ("lo", "hi", "lo_log_arg", "hi_exact")),
        (t2_matrix(36), ("weight", "dim", "entries")),
        (poly, ("weight", "coeffs")),
        (check_irreducible(poly), ("kind", "witness_prime", "factor_degrees", "primes_tried")),
        (miller_basis(36), ("weight", "dim", "forms")),
        (primorial_row(3, table), ("k", "p_k", "gap", "log_primorial")),
        (compute_record(36), ("k", "dim", "trace")),
        (run_scan(12, 30),
         ("k_min", "k_max", "records", "duplicates", "computed", "resumed", "elapsed_seconds", "torn_tail")),
        (table, ("limit", "primes")),
    ]


RECORDS = _records()


@pytest.mark.parametrize("rec, names", RECORDS, ids=[type(rec).__name__ for rec, _ in RECORDS])
def test_record_is_read_only_and_pickles(rec, names):
    assert tuple(rec) == tuple(getattr(rec, name) for name in names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert back == rec
