"""Command-line surface.

Exit codes: 0 success, 1 a verification failed (violated inequality,
duplicate pair, missing difference, uncertified irreducibility),
2 usage or input errors (among them an input too large to hold, which
raises OverflowError, or one that fits in an index but not in memory,
which raises MemoryError), 3 an internal exactness check failed (a
division that must be exact left a remainder, the charpoly's Krylov
matrix stayed singular modulo every lifting prime, or the interval
enclosure of a theta near-tie still straddled it at each of five doubling
precisions), reported as one stderr line.  A scan whose worker
process dies (BrokenProcessPool) exits 2 with one stderr line: the
records written before the death are complete, and `scan --resume` with
the same range finishes it.  All numeric output uses a plain decimal
point and no grouping, regardless of locale.  Every subcommand but
theta-plot, which writes CSV, accepts --json for a machine-readable line
mirroring the underlying record fields; big integers are emitted as
decimal strings there.  mpmath is loaded only by the subcommands that
print an extended-precision value and by --version.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import re
import sys
from concurrent.futures.process import BrokenProcessPool

from . import __version__
from .bounds import (
    ASYMPTOTIC_NOTE,
    bound_report,
    exceptional_levels,
    verify_dusart,
    verify_lemma_theta,
)
from .hecke import _decimal, charpoly_t2, check_irreducible, distinguish, eigenform_coeffs, trace_t2
from .modforms import miller_basis
from .primes import THETA_BITS, primorial_row, sieve
from .scan import MAEDA_CAVEAT, run_scan


def _level(text):
    """int(text), also past the 4300 digits at which int() stops reading
    a decimal string; Decimal reads it whole."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            return int(decimal.Decimal(text))
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fmt(x, digits=20):
    import mpmath

    return mpmath.nstr(x, digits)


def emit_theta_plot(x_max, table):
    """CSV with header x,theta_2x,y_line: two rows per step breakpoint of
    theta(2x) on [0, x_max] (left limit, then jump value) so a plotting
    tool renders exact steps, with the identity line at the same x."""
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    if 2 * x_max > table.limit:
        raise ValueError(f"table limit {table.limit} below 2*x_max")
    import mpmath

    rows = ["x,theta_2x,y_line", "0.0,0.0,0.0"]
    prev = mpmath.mpf(0)
    last_x = 0.0
    for i, p in enumerate(table.primes):
        x = p / 2  # half-integers are exact floats
        if x > x_max:
            break
        theta_val = table.theta_prefix[i]
        rows.append(f"{x},{_fmt(prev)},{x}")
        rows.append(f"{x},{_fmt(theta_val)},{x}")
        prev = theta_val
        last_x = x
    if float(x_max) > last_x:
        rows.append(f"{float(x_max)},{_fmt(prev)},{float(x_max)}")
    return "\n".join(rows) + "\n"


def main():
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BrokenProcessPool as exc:
        print(
            f"error: a worker process died ({exc}); the records written are complete, "
            "rerun with --resume to finish the range",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: exactness check failed: {exc}", file=sys.stderr)
        return 3


def _build_parser():
    parser = _Parser(
        prog="heckescan",
        description="Exact T2 traces for level-1 cusp forms and prime-counting bound checks.",
        # keeps the --version line whole at any terminal width
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vmbasis", help="echelon basis of the weight-k cusp space")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--prec", type=int, default=None, help="series precision (default 2*dim)")
    _add_json(p)
    p.set_defaults(func=_cmd_vmbasis)

    p = sub.add_parser("trace", help="(dim, trace) of T2 at one weight")
    p.add_argument("--weight", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("scan", help="scan a weight range for duplicate (dim, trace) pairs")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    _add_json(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("charpoly", help="characteristic polynomial of T2")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--check-irreducible", action="store_true")
    p.add_argument("--prime-budget", type=int, default=None)
    _add_json(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("distinguish", help="first coefficient separating two eigenforms")
    p.add_argument("--weight1", type=int, required=True)
    p.add_argument("--weight2", type=int, required=True)
    p.add_argument("--max-n", type=int, default=4)
    _add_json(p)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("bound", help="distinguishing-index bounds for a level")
    p.add_argument("--level", type=_level, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("theta-check", help="verify the theta inequalities up to a limit")
    p.add_argument("--limit", type=int, default=10**6)
    _add_json(p)
    p.set_defaults(func=_cmd_theta_check)

    p = sub.add_parser("exceptional-set", help="levels where the simple estimate fails")
    _add_json(p)
    p.set_defaults(func=_cmd_exceptional_set)

    p = sub.add_parser("primorial-table", help="first k primorial rows (p_k, gap, theta)")
    p.add_argument("--count", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_primorial_table)

    p = sub.add_parser("theta-plot", help="CSV of theta(2x) steps vs the identity line")
    p.add_argument("--max", type=float, required=True, dest="x_max")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.set_defaults(func=_cmd_theta_plot)

    return parser


class _Parser(argparse.ArgumentParser):
    """argparse's version action prints `parser.version` when it is given
    no text of its own, so the --version text is built only when the
    option is given: reading mpmath's version loads it."""

    @property
    def version(self):
        return _version_text()


def _version_text():
    """The version and the big-integer backends the numbers depend on."""
    import mpmath

    try:
        import gmpy2
    except ImportError:
        backend = "no gmpy2"
    else:
        backend = f"gmpy2 {gmpy2.version()}"
    return (
        f"heckescan {__version__} (Python {sys.version.split()[0]}, {backend}, "
        f"mpmath {mpmath.__version__} {mpmath.libmp.BACKEND} backend)"
    )


def _add_json(p):
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _cmd_vmbasis(args):
    basis = miller_basis(args.weight, args.prec)
    prec = basis.forms[0].prec if basis.dim else (args.prec or 0)
    if args.json:
        print(json.dumps({
            "weight": basis.weight,
            "dim": basis.dim,
            "prec": prec,
            "forms": [[str(c) for c in f.coeffs] for f in basis.forms],
        }))
        return 0
    print(f"k={basis.weight} dim={basis.dim} prec={prec}")
    for j, f in enumerate(basis.forms, start=1):
        print(f"f_{j}: " + " ".join(str(c) for c in f.coeffs))
    return 0


def _cmd_trace(args):
    d, t = trace_t2(args.weight)
    if args.json:
        print(json.dumps({"k": args.weight, "dim": d, "trace": str(t)}))
    else:
        print(f"k={args.weight} dim={d} trace={t}")
    return 0


def _cmd_scan(args):
    report = run_scan(
        args.min,
        args.max,
        workers=args.jobs,
        output_path=args.out,
        resume=args.resume,
    )
    if report.torn_tail is not None:
        print(
            f"warning: {args.out}: cut off a torn last record {report.torn_tail[:40]!r} "
            "(no newline) before appending",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps({
            "k_min": report.k_min,
            "k_max": report.k_max,
            "records": report.records_count,
            "computed": report.computed,
            "resumed": report.resumed,
            "duplicates": [list(p) for p in report.duplicates],
            "elapsed_seconds": round(report.elapsed_seconds, 3),
            "seconds_per_weight": round(report.seconds_per_weight, 6),
        }))
    else:
        print(
            f"scan k={report.k_min}..{report.k_max}: {report.records_count} records "
            f"({report.computed} computed, {report.resumed} resumed), "
            f"{report.elapsed_seconds:.1f}s total, {report.seconds_per_weight:.3f}s/weight"
        )
        if report.duplicates:
            print("duplicate (dim, trace) pairs found:")
            for a, b in report.duplicates:
                print(f"  k={a} and k={b}")
        else:
            print("no duplicate (dim, trace) pairs")
        if any(r.dim > 1 for r in report.records):
            print(MAEDA_CAVEAT)
    return 1 if report.duplicates else 0


def _cmd_charpoly(args):
    # refused in every mode, not only where check_irreducible would run
    if args.prime_budget is not None and args.prime_budget < 1:
        raise ValueError("prime budget must be positive")
    poly = charpoly_t2(args.weight)
    payload = {
        "weight": poly.weight,
        "degree": poly.degree,
        "coeffs": [_decimal(c) for c in poly.coeffs],
    }
    exit_code = 0
    verdict = None
    if args.check_irreducible and poly.degree >= 1:
        verdict = check_irreducible(poly, args.prime_budget)
        payload["verdict"] = {
            "kind": verdict.kind,
            "witness_prime": verdict.witness_prime,
            "factor_degrees": list(verdict.factor_degrees) if verdict.factor_degrees else None,
            "primes_tried": verdict.primes_tried,
        }
        exit_code = 0 if verdict.is_irreducible else 1
    if args.json:
        print(json.dumps(payload))
        return exit_code
    print(f"k={poly.weight} degree={poly.degree} charpoly: {poly}")
    print("coeffs: " + " ".join(map(_decimal, poly.coeffs)))
    if args.check_irreducible and poly.degree == 0:
        print("degree 0: nothing to check")
    elif verdict is not None:
        if verdict.kind == "irreducible":
            where = f" (witness prime {verdict.witness_prime})" if verdict.witness_prime else ""
            print(f"irreducible{where}")
        elif verdict.kind == "reducible":
            print(f"reducible: factor degrees {list(verdict.factor_degrees)}")
        else:
            print(f"inconclusive after {verdict.primes_tried} primes")
    return exit_code


def _cmd_distinguish(args):
    if args.weight1 == args.weight2:
        raise ValueError("the two weights must differ")
    n_max = args.max_n
    a = eigenform_coeffs(args.weight1, n_max)
    b = eigenform_coeffs(args.weight2, n_max)
    n = distinguish(a, b, n_max)
    if args.json:
        print(json.dumps({
            "weight1": args.weight1,
            "weight2": args.weight2,
            "max_n": n_max,
            "n": n,
            "a_n": None if n is None else [str(a[n - 1]), str(b[n - 1])],
        }))
    elif n is None:
        print(f"no difference found for n <= {n_max}")
    else:
        print(f"k1={args.weight1} k2={args.weight2} differ at n={n}: {a[n - 1]} != {b[n - 1]}")
    return 0 if n is not None else 1


def _cmd_bound(args):
    rep = bound_report(args.level)
    level = _decimal(rep.level)  # str() and json.dumps stop at 4300 digits
    if args.json:
        rest = json.dumps({
            "p": rep.p,
            "murty_bound": rep.murty_bound,
            "main_bound": _fmt(rep.main_bound),
            "asymptotic": None if rep.asymptotic is None else [_fmt(v) for v in rep.asymptotic],
            "asymptotic_note": ASYMPTOTIC_NOTE,
            "prec_bits": THETA_BITS,
        })
        print(f'{{"level": {level}, {rest[1:]}')
        return 0
    print(f"N={level} p={rep.p} murty_bound={rep.murty_bound} main_bound={_fmt(rep.main_bound)}")
    if rep.asymptotic is not None:
        u, rh, cr = (_fmt(v) for v in rep.asymptotic)
        print(f"asymptotic ({ASYMPTOTIC_NOTE}): unconditional={u} rh={rh} cramer={cr}")
    else:
        print("asymptotic: undefined for N < 3")
    return 0


def _cmd_theta_check(args):
    table = sieve(args.limit)
    shifted = verify_lemma_theta(table)
    dusart = verify_dusart(table)
    if args.json:
        print(json.dumps({
            "limit": args.limit,
            "checks": [_check_payload(r) for r in (shifted, dusart)],
        }))
    else:
        for rep in (shifted, dusart):
            status = "pass" if rep.ok else "FAIL"
            print(
                f"{status} {rep.name}: {rep.points_checked} points, "
                f"min slack {_fmt(rep.min_slack, 10)} at x={_fmt(rep.min_slack_x, 10)}"
            )
            for v in rep.violations:
                print(f"  violation near p={v[0]}: {v}")
    return 0 if shifted.ok and dusart.ok else 1


def _check_payload(rep):
    return {
        "name": rep.name,
        "ok": rep.ok,
        "points_checked": rep.points_checked,
        "min_slack": _fmt(rep.min_slack),
        "min_slack_x": _fmt(rep.min_slack_x),
        "violations": len(rep.violations),
        "prec_bits": THETA_BITS,
    }


def _cmd_exceptional_set(args):
    table = sieve(64)
    levels = exceptional_levels(table)
    if args.json:
        print(json.dumps({"levels": list(levels)}))
    else:
        print(" ".join(str(n) for n in levels))
    return 0


def _cmd_primorial_table(args):
    if args.count < 1:
        raise ValueError("--count must be positive")
    # p_n < n (ln n + ln ln n) for n >= 6 (Rosser-Schoenfeld); 64 covers n < 6
    n = args.count + 1
    table = sieve(max(64, int(n * (math.log(n) + math.log(math.log(n)))) + 1))
    rows = [primorial_row(k, table) for k in range(1, args.count + 1)]
    if args.json:
        print(json.dumps({
            "rows": [
                {"k": r.k, "p_k": r.p_k, "gap": r.gap, "log_primorial": _fmt(r.log_primorial)}
                for r in rows
            ]
        }))
        return 0
    print("k\tp_k\tgap\ttheta(p_k)")
    for r in rows:
        print(f"{r.k}\t{r.p_k}\t{r.gap}\t{_fmt(r.log_primorial)}")
    return 0


def _cmd_theta_plot(args):
    limit = max(4, int(2 * args.x_max) + 1)
    table = sieve(limit)
    csv_text = emit_theta_plot(args.x_max, table)
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    main()
