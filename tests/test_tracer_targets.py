"""The benchmark's tracer wraps package functions by module and name; a
name the package drops or stops importing breaks every traced run."""

import importlib
import importlib.util
from pathlib import Path

import heckescan.modforms

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def missing_targets():
    """'module.attr' for every place in the tracer's TARGETS that names no
    callable of the package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, places, _ in tracer.TARGETS:
        for module_name, attr in places:
            if not callable(getattr(importlib.import_module(module_name), attr, None)):
                missing.append(f"{module_name}.{attr}")
    return missing


def test_missing_tracer_targets_are_found(monkeypatch):
    monkeypatch.delattr(heckescan.modforms, "delta")
    monkeypatch.delattr(heckescan.modforms, "series_pow")
    assert missing_targets() == ["heckescan.modforms.series_pow", "heckescan.modforms.delta"]


def test_every_tracer_target_resolves():
    assert missing_targets() == []
