"""heckescan benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
src/).  Each repetition of the workload runs in a fresh process
(perfbench/job.py); repetitions continue until --seconds have passed,
with at least MIN_ITERATIONS of them.  This process checks every answer
against perfbench/oracle.py and prints, as the last line of standard
output, one JSON object with "correct", "attempted", "failed" and
"metrics".  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 every repetition is paired with a traced
one and the metrics are the per-layer ones.  The line before it names
the environment.  Samples, spans and the environment are also written to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_BUDGET_S = 170  # the whole run must end within 180 s
MIN_ITERATIONS = {False: 3, True: 2}  # untraced repetitions, traced pairs
MIB = 1 << 20
# Layer counts that must repeat exactly between traced repetitions.
EXACT_COUNTS = ("series.mul_calls", "hecke.primes_tried", "primes.nondivisor_calls",
                "bounds.lemma_points", "bounds.dusart_points")


def environment():
    try:
        import gmpy2
        gmpy2_version = gmpy2.version()
    except ImportError:
        gmpy2_version = None
    import mpmath

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": gmpy2_version,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def run_job(workload, seed, trace_run, traced, rep, deadline):
    """One fresh-process repetition; returns its timings and failure count."""
    spec = workloads.make_spec(workload, seed, trace_run)
    n_items = workloads.items(workload, spec)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    result_path = work_dir / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, str(HERE / "job.py"), workload, str(seed),
            str(int(trace_run)), str(int(traced)), str(result_path), str(work_dir)]
    spawned = time.monotonic()
    # A session of its own, so that a stuck job and its pool workers can
    # be stopped together.
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} repetition {rep} killed at the time limit", file=sys.stderr)
    if proc.returncode != 0 or not result_path.exists():
        print(f"perfbench: {workload} repetition {rep} exited with {proc.returncode}", file=sys.stderr)
        return {"items": n_items, "failed": n_items}
    with open(result_path, encoding="ascii") as fh:
        result = json.load(fh)
    try:
        failed = min(n_items, oracle.CHECKS[workload](spec, result["answer"]))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"perfbench: malformed {workload} answer: {exc!r}", file=sys.stderr)
        failed = n_items
    sample = {
        "rep": rep,
        "traced": traced,
        "items": n_items,
        "failed": failed,
        "setup_s": result["t_ready"] - spawned,
        "wall_s": result["wall_s"],
        "peak_rss_mib": result["peak_rss_kib"] * 1024 / MIB,
    }
    if traced:
        sample["layers"] = result["layers"]
        with open(OUT / f"{workload}-seed{seed}.spans.jsonl", "a", encoding="ascii") as fh:
            for span in result["spans"]:
                fh.write(json.dumps([rep] + span) + "\n")
    return sample


def end_to_end(samples):
    walls = [s["wall_s"] for s in samples]
    return {
        "wall_s_p75": statistics.quantiles(walls, n=4)[2],
        "wall_s_median": statistics.median(walls),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
    }


def per_layer(samples):
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    names = traced[0]["layers"]
    metrics = {name: statistics.median(s["layers"][name] for s in traced) for name in names}
    for name in EXACT_COUNTS:
        values = {s["layers"][name] for s in traced}
        if len(values) > 1:
            print(f"perfbench: count {name} differs between traced repetitions: {sorted(values)}",
                  file=sys.stderr)
    metrics["trace_overhead_ratio"] = (
        statistics.median(s["wall_s"] for s in traced) / statistics.median(s["wall_s"] for s in plain)
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heckescan" / "__init__.py").is_file():
        print(f"perfbench: no heckescan sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec_file["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    traced_run = bool(args.trace)
    samples = []
    iterations = 0
    longest = 0.0
    while True:
        t0 = time.monotonic()
        # In a traced run each iteration is a pair; which side runs first
        # alternates, so drift over the run does not bias the ratio.
        order = [False] if not traced_run else ([False, True] if iterations % 2 == 0 else [True, False])
        for traced in order:
            samples.append(run_job(args.workload, args.seed, traced_run, traced, len(samples), deadline))
        iterations += 1
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now + longest > deadline:
            break
        # Stop when one more iteration would end more than half an
        # iteration past --seconds, so runs last about --seconds.
        if iterations >= MIN_ITERATIONS[traced_run] and now - start + longest / 2 > args.seconds:
            break
    shutil.rmtree(OUT / f"work-{os.getpid()}", ignore_errors=True)

    attempted = sum(s["items"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    timed = [s for s in samples if "wall_s" in s]
    if not {False, traced_run} <= {s["traced"] for s in timed}:
        print("perfbench: no repetition completed; nothing to report", file=sys.stderr)
        return 1
    measured = per_layer(timed) if traced_run else end_to_end(timed)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    median = f", median job {measured['wall_s_median']:.4f} s" if not traced_run else ""

    env = environment()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "samples": samples,
              "attempted": attempted, "failed": failed, "measured": measured, "metrics": metrics}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + json.dumps(env))
    print(f"repetitions: {len(timed)} in {time.monotonic() - start:.1f} s{median}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
