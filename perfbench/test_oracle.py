"""Tests of the benchmark's own answer checks and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py

Each workload runs once in-process on seed 0 (about 10 s in total); its
answers must pass, and every corrupted copy must be counted as failed.
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import job  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    out = {}
    for name in workloads.NAMES:
        spec = workloads.make_spec(name, 0)
        inputs = job.make_inputs(name, spec, str(tmp_path_factory.mktemp(name)))
        out[name] = (spec, job.RUNNERS[name](spec, inputs, {})())
    return out


def failures(answers, name, corrupt=None):
    spec, answer = answers[name]
    answer = copy.deepcopy(answer)
    if corrupt:
        corrupt(answer)
    return oracle.CHECKS[name](spec, answer)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_answers_pass(answers, name):
    assert failures(answers, name) == 0


def _flip_digit(text):
    i = next(i for i in range(len(text) - 1, -1, -1) if text[i].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_scan_flipped_trace_digit_fails(answers):
    def corrupt(answer):
        lines = answer["file"].splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("100\t"))
        lines[at] = _flip_digit(lines[at].rstrip("\n")) + "\n"
        answer["file"] = "".join(lines)
        row = next(r for r in answer["loaded"] if r[0] == 100)
        row[2] = int(_flip_digit(str(row[2])))
    assert failures(answers, "scan", corrupt) >= 1


def test_scan_duplicate_record_fails(answers):
    def corrupt(answer):
        answer["file"] += answer["file"].splitlines(keepends=True)[-1]
    assert failures(answers, "scan", corrupt) >= 1


def test_scan_torn_last_line_fails(answers):
    def corrupt(answer):
        answer["file"] = answer["file"][:-3]
    assert failures(answers, "scan", corrupt) >= 1


def test_maeda_flipped_coefficient_fails(answers):
    def corrupt(answer):
        item = next(i for i in answer["items"] if i["k"] == 96)
        item["coeffs"][-1] = _flip_digit(item["coeffs"][-1])
    assert failures(answers, "maeda", corrupt) == 1


def test_maeda_inconclusive_verdict_fails(answers):
    def corrupt(answer):
        answer["items"][0]["verdict"] = "inconclusive"
    assert failures(answers, "maeda", corrupt) == 1


def test_maeda_missing_weight_fails(answers):
    def corrupt(answer):
        del answer["items"][3]
    assert failures(answers, "maeda", corrupt) == 1


def test_bounds_wrong_prime_fails(answers):
    def corrupt(answer):
        rep = answer["reports"][5]
        rep["p"] = oracle.primes_upto(100)[oracle.primes_upto(100).index(rep["p"]) + 1]
        rep["murty_bound"] = rep["p"] ** 2
    assert failures(answers, "bounds", corrupt) == 1


def test_bounds_wrong_point_count_fails(answers):
    def corrupt(answer):
        answer["theta"]["checks"][1]["points_checked"] -= 1
    assert failures(answers, "bounds", corrupt) == 1


def test_bounds_wrong_exceptional_set_fails(answers):
    def corrupt(answer):
        answer["exceptional"].remove(33)
    assert failures(answers, "bounds", corrupt) == 1


def test_primorial_wrong_prime_fails(answers):
    def corrupt(answer):
        answer["items"][0][1] += 2
    assert failures(answers, "primorial", corrupt) == 1


def test_primorial_error_fails(answers):
    def corrupt(answer):
        answer["items"][1][1] = "ValueError()"
    assert failures(answers, "primorial", corrupt) == 1


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf")

    def outer():
        leaf()
        leaf()
    tracer.wrap(outer, "outer")()
    stats = tracer.self_times()
    assert stats["outer"] == (1, 10.0, 5.0)
    assert stats["leaf"] == (2, 5.0, 5.0)
