"""One repetition of one workload, in a fresh process.

    python3 perfbench/job.py WORKLOAD SEED TRACE_RUN TRACED RESULT_PATH WORK_DIR

TRACE_RUN (0 or 1) says whether this repetition belongs to a traced run,
which sizes some workloads differently; TRACED (0 or 1) says whether to
record spans in this repetition.

Set-up is interpreter start, `import heckescan` and making the inputs;
the job marks its end with a CLOCK_MONOTONIC reading, which the parent
compares with the moment it started this process.  The program's lazy
caches (Bernoulli numbers, segment trees) are left cold, as every CLI
process finds them.  Only the job itself is timed.  The answers, the
timings and, when traced, the span statistics go to RESULT_PATH as JSON;
the parent checks the answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import heckescan
import heckescan.bounds
import heckescan.cli
import heckescan.hecke
import heckescan.primes
import heckescan.scan

import oracle
import workloads
from tracer import Tracer, layer_metrics


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = heckescan.cli.dispatch(argv)
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[-1]) if code in (0, 1) and lines else None


def run_scan(spec, inputs, sizes):
    out = inputs["out"]
    argv = ["scan", "--min", str(spec["k_min"]), "--max", str(spec["k_max"]),
            "--jobs", str(spec["jobs"]), "--out", out, "--json"]
    first = _cli(argv)
    resumed = _cli(argv + ["--resume"])
    loaded = heckescan.scan.load_records(out)
    return lambda: _scan_answer(out, first, resumed, loaded, sizes)


def _scan_answer(out, first, resumed, loaded, sizes):
    with open(out, encoding="ascii") as fh:
        text = fh.read()
    sizes["scan.record_bytes"] = len(text)
    return {
        "exit_codes": [first[0], resumed[0]],
        "outputs": [first[1], resumed[1]],
        "loaded": [[r.k, r.dim, r.trace] for r in loaded],
        "file": text,
    }


def run_maeda(spec, inputs, sizes):
    results = []
    for k in spec["weights"]:
        try:
            poly = heckescan.hecke.charpoly_t2(k)
            verdict = heckescan.hecke.check_irreducible(poly)
            results.append((k, poly, verdict))
        except Exception as exc:  # counted as a failed item by the checker
            results.append((k, exc, None))

    def answer():
        items = []
        for k, poly, verdict in results:
            if verdict is None:
                items.append({"k": k, "error": repr(poly)})
            else:
                items.append({"k": k, "coeffs": [str(c) for c in poly.coeffs],
                              "verdict": verdict.kind, "primes_tried": verdict.primes_tried})
        return {"items": items}
    return answer


def run_bounds(spec, inputs, sizes):
    theta = _cli(["theta-check", "--limit", str(spec["theta_limit"]), "--json"])
    exceptional = heckescan.bounds.exceptional_levels(heckescan.primes.sieve(64))
    reports = []
    for n in spec["levels"]:
        try:
            reports.append(heckescan.bounds.bound_report(n))
        except Exception as exc:  # counted as a failed item by the checker
            reports.append(exc)

    def answer():
        return {
            "theta_exit": theta[0],
            "theta": theta[1] or {},
            "exceptional": list(exceptional),
            "reports": [
                {"error": repr(r)} if isinstance(r, Exception) else
                {"level": r.level, "p": r.p, "murty_bound": r.murty_bound,
                 "main_bound": float(r.main_bound)}
                for r in reports
            ],
        }
    return answer


def run_primorial(spec, inputs, sizes):
    primorials = inputs["primorials"]
    found = []
    for k in spec["ks"]:
        try:
            found.append([k, heckescan.primes.smallest_nondivisor_prime(primorials[k - 1])])
        except Exception as exc:  # counted as a failed item by the checker
            found.append([k, repr(exc)])
    return lambda: {"items": found}


RUNNERS = {"scan": run_scan, "maeda": run_maeda, "bounds": run_bounds, "primorial": run_primorial}


def make_inputs(workload, spec, work_dir):
    if workload == "scan":
        out = os.path.join(work_dir, "records.tsv")
        if os.path.exists(out):
            os.remove(out)
        return {"out": out}
    if workload == "primorial":
        primorials = []
        acc = 1
        for p in oracle.first_primes(max(spec["ks"])):
            acc *= p
            primorials.append(acc)
        return {"primorials": primorials}
    return {}


def _peak_rss_kib():
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN reports the largest
    # pool worker that has been joined, not the sum of all workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv):
    workload, seed, trace_run, traced, result_path, work_dir = argv
    traced = traced == "1"
    spec = workloads.make_spec(workload, int(seed), trace_run == "1")
    inputs = make_inputs(workload, spec, work_dir)
    t_ready = time.monotonic()

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    sizes = {}
    t0 = time.perf_counter()
    try:
        answer_fn = RUNNERS[workload](spec, inputs, sizes)
        error = None
    except Exception as exc:  # the checker fails every item of this job
        answer_fn, error = None, repr(exc)
    wall_s = time.perf_counter() - t0
    rss_kib = _peak_rss_kib()

    result = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "peak_rss_kib": rss_kib,
        "answer": {"error": error} if answer_fn is None else answer_fn(),
    }
    if tracer:
        sizes.update(tracer.sizes)
        result["layers"] = layer_metrics(tracer.self_times(), sizes, wall_s)
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
