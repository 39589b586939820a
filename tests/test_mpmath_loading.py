"""The exact half of the package (traces, charpolys, scans) runs without
mpmath; the bound functions load it on first use, from any thread."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BOUND_210 = (
    '{"level": 210, "p": 11, "murty_bound": 121, "main_bound": "161.14309602596161052", '
    '"asymptotic": ["60.193851112155150562", "85.081139688703157096", "66.552095470056513103"], '
    '"asymptotic_note": "shape only: implied constants taken as 1", "prec_bits": 96}'
)


def run_fresh(script, *args):
    """The last stdout line of script, as JSON, run in a fresh interpreter
    that imports the package from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


EXACT_HALF = """
    import contextlib, importlib, io, json, pkgutil, sys
    import heckescan
    from heckescan.cli import dispatch

    for info in pkgutil.iter_modules(heckescan.__path__):
        if info.name != "__main__":  # runs the CLI on import
            importlib.import_module(f"heckescan.{info.name}")

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dispatch(argv)
        return code, buf.getvalue()

    codes = [run(argv)[0] for argv in (
        ["trace", "--weight", "36"],
        ["charpoly", "--weight", "36", "--check-irreducible"],
        ["distinguish", "--weight1", "12", "--weight2", "16"],
        ["vmbasis", "--weight", "36"],
        ["scan", "--min", "2", "--max", "80", "--jobs", "2", "--out", sys.argv[1]],
    )]
    before = "mpmath" in sys.modules
    code, out = run(["bound", "--level", "210", "--json"])
    print(json.dumps({"codes": codes + [code], "before": before,
                      "after": "mpmath" in sys.modules, "bound": out,
                      "dataclasses": "dataclasses" in sys.modules}))
"""


def test_exact_subcommands_run_without_mpmath(tmp_path):
    got = run_fresh(EXACT_HALF, tmp_path / "records.tsv")
    assert got == {
        "codes": [0, 0, 0, 0, 0, 0],
        "before": False,
        "after": True,
        "bound": BOUND_210 + "\n",
        "dataclasses": False,
    }


FIRST_REPORTS_IN_THREADS = """
    import json, sys, threading
    from heckescan.bounds import bound_report

    levels = [*range(1, 400), 10**12 + 39, 10**300 + 7]
    start = threading.Barrier(4)
    got = [None] * 4

    def work(i):
        start.wait()
        got[i] = [bound_report(n) for n in levels]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    want = [bound_report(n) for n in levels]
    print(json.dumps([not t.is_alive() and g == want for t, g in zip(threads, got)]))
"""


def test_first_bound_reports_from_four_threads_equal_the_serial_ones():
    assert run_fresh(FIRST_REPORTS_IN_THREADS) == [True] * 4
