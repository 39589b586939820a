"""Exact q-expansion arithmetic, T2 Hecke traces for level-1 cusp forms,
weight-range duplicate scanning, and prime-counting bound verification."""

from .series import IntSeries, series_mul
from .modforms import (
    MillerBasis,
    delta,
    dim_cusp,
    eisenstein,
    miller_basis,
)
from .hecke import (
    CharPoly,
    IrreducibilityVerdict,
    T2Matrix,
    charpoly_t2,
    check_irreducible,
    distinguish,
    eigenform_coeffs,
    t2_matrix,
    trace_t2,
)
from .primes import (
    THETA_BITS,
    PrimeTable,
    PrimorialRow,
    primorial_row,
    sieve,
    smallest_nondivisor_prime,
)
from .bounds import (
    ASYMPTOTIC_NOTE,
    DUSART_COEFF,
    UNSHIFTED_X_MAX,
    BoundReport,
    CheckReport,
    FailureInterval,
    bound_report,
    exceptional_levels,
    failure_intervals,
    main_bound,
    murty_bound,
    verify_dusart,
    verify_lemma_theta,
)
from .scan import (
    MAEDA_CAVEAT,
    RecordFileError,
    ScanReport,
    WeightRecord,
    compute_record,
    detect_duplicates,
    load_records,
    run_scan,
)

__version__ = "0.1.0"
