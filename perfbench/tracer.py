"""Spans around calls into heckescan's modules, recorded from outside.

Tracer.install replaces public functions in the modules that call them
(for example series_mul as imported into heckescan.modforms) with
wrappers that record a span: name, start, end and parent.  Spans stay in
memory until the job writes them out.  A span's self time is its duration
minus the time its child spans cover; calls are nested and sequential
within the one traced process, so the children never overlap.

Work the tracer does to size operands runs in a "tracer" span of its
own, so that it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

MIB = 1 << 20


def _series_sizes(args, result):
    bits = sum(c.bit_length() for f in args if hasattr(f, "coeffs") for c in f.coeffs)
    return {"series.out_terms": len(result.coeffs), "series.operand_bits": bits}


def _charpoly_bits(args, result):
    return {"hecke.charpoly_max_bits": max(abs(c).bit_length() for c in result.coeffs)}


def _verdict(args, result):
    certified = result.kind == "irreducible" and result.witness_prime is not None
    return {"hecke.primes_tried": result.primes_tried, "hecke.certified": int(certified)}


def _operand_bits(args, result):
    return {"primes.nondivisor_operand_bits": int(args[0]).bit_length()}


def _points(name):
    return lambda args, result: {name: result.points_checked}


def _scan_name(args, kwargs):
    return "scan.resume" if kwargs.get("resume") else "scan.run"


# (span name, [(module, attribute), ...], sizer).  A callable name picks
# the span name from the call's arguments.
TARGETS = (
    ("series.mul", [("heckescan.modforms", "series_mul")], _series_sizes),
    ("series.pow", [("heckescan.modforms", "series_pow")], _series_sizes),
    ("modforms.basis", [("heckescan.hecke", "miller_basis")], None),
    ("modforms.eisenstein", [("heckescan.modforms", "eisenstein")], None),
    ("modforms.delta", [("heckescan.modforms", "delta")], None),
    ("hecke.trace", [("heckescan.scan", "trace_t2")], None),
    ("hecke.matrix", [("heckescan.hecke", "t2_matrix")], None),
    ("hecke.charpoly", [("heckescan.hecke", "charpoly_t2")], _charpoly_bits),
    ("hecke.irreducible", [("heckescan.hecke", "check_irreducible")], _verdict),
    ("primes.sieve", [("heckescan.primes", "sieve"), ("heckescan.cli", "sieve")], None),
    ("primes.nondivisor", [("heckescan.primes", "smallest_nondivisor_prime"),
                           ("heckescan.bounds", "smallest_nondivisor_prime")], _operand_bits),
    ("bounds.lemma", [("heckescan.cli", "verify_lemma_theta")], _points("bounds.lemma_points")),
    ("bounds.dusart", [("heckescan.cli", "verify_dusart")], _points("bounds.dusart_points")),
    ("bounds.report", [("heckescan.bounds", "bound_report")], None),
    ("bounds.exceptional", [("heckescan.bounds", "exceptional_levels")], None),
    (_scan_name, [("heckescan.cli", "run_scan")], None),
    ("scan.load", [("heckescan.scan", "load_records")], None),
    ("cli.dispatch", [("heckescan.cli", "dispatch")], None),
)

TRACER_SPAN = "tracer"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.sizes = {}
        self._stack = []

    def install(self, targets=TARGETS):
        """Wrap every target in place, for the rest of the process."""
        for name, places, sizer in targets:
            for module_name, attr in places:
                module = importlib.import_module(module_name)
                setattr(module, attr, self.wrap(getattr(module, attr), name, sizer))

    def wrap(self, fn, name, sizer=None):
        clock = self.clock
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizer is not None:
                t0 = clock()
                self._add_sizes(sizer(args, result))
                spans.append([TRACER_SPAN, t0, clock(), parent])
            return result
        return traced

    def _add_sizes(self, sizes):
        for key, value in sizes.items():
            if key.endswith("_max_bits"):
                self.sizes[key] = max(self.sizes.get(key, 0), value)
            else:
                self.sizes[key] = self.sizes.get(key, 0) + value

    def self_times(self):
        """{span name: (calls, total duration, total self time)}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child))
        return out


def layer_metrics(stats, sizes, wall_s):
    """Per-layer metrics of one traced job from its span statistics."""
    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    tried = sizes.get("hecke.primes_tried", 0)
    layered = sum(v[2] for n, v in stats.items() if n != TRACER_SPAN)
    return {
        "series.mul_calls": calls("series.mul", "series.pow"),
        "series.mul_s": total("series.mul", "series.pow"),
        "series.out_terms": sizes.get("series.out_terms", 0),
        "series.operand_mbytes": sizes.get("series.operand_bits", 0) / 8 / MIB,
        "modforms.basis_calls": calls("modforms.basis"),
        "modforms.basis_self_s": own("modforms.basis"),
        "modforms.eisenstein_s": total("modforms.eisenstein"),
        "modforms.delta_s": total("modforms.delta"),
        "hecke.trace_self_s": own("hecke.trace"),
        "hecke.matrix_s": own("hecke.matrix"),
        "hecke.charpoly_s": own("hecke.charpoly"),
        "hecke.charpoly_max_bits": sizes.get("hecke.charpoly_max_bits", 0),
        "hecke.irreducible_s": total("hecke.irreducible"),
        "hecke.primes_tried": tried,
        "hecke.witness_ratio": sizes.get("hecke.certified", 0) / tried if tried else 0.0,
        "primes.sieve_s": total("primes.sieve"),
        "primes.nondivisor_calls": calls("primes.nondivisor"),
        "primes.nondivisor_s": total("primes.nondivisor"),
        "primes.nondivisor_operand_mbytes": sizes.get("primes.nondivisor_operand_bits", 0) / 8 / MIB,
        "bounds.lemma_s": total("bounds.lemma"),
        "bounds.lemma_points": sizes.get("bounds.lemma_points", 0),
        "bounds.dusart_s": total("bounds.dusart"),
        "bounds.dusart_points": sizes.get("bounds.dusart_points", 0),
        "bounds.report_self_s": own("bounds.report"),
        "bounds.exceptional_s": total("bounds.exceptional"),
        "scan.self_s": own("scan.run", "scan.resume"),
        "scan.resume_s": total("scan.resume"),
        "scan.load_s": total("scan.load"),
        "scan.record_mbytes": sizes.get("scan.record_bytes", 0) / MIB,
        "cli.self_s": own("cli.dispatch"),
        "layer_coverage": layered / wall_s,
    }
