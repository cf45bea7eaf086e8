"""The benchmark's tracer still wraps the cylspec names it lists.

``bench/tracer.py`` replaces cylspec functions by module and name; a
renamed or deleted name fails here instead of in a traced benchmark run.
The tracer is loaded from its file and not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import cylspec
from cylspec import CylinderParams
from cylspec.grid import GridFunction

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_counts_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracer.TRACED_FUNCTIONS
    }
    fft, to_csv = np.fft.fft, GridFunction.__dict__["to_csv"]

    traced = tracer.Tracer()
    traced.install()
    try:
        assert cylspec.find_roots is not originals[("cylspec.indicial", "find_roots")]
        cylspec.find_roots(CylinderParams(n=3, gamma=0.5, kappa=0.3), 0, count=3)
    finally:
        traced.uninstall()

    assert traced.counts["indicial.find_roots.calls"] == 1
    assert traced.counts["indicial.roots"] == 3
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr}"
    assert cylspec.find_roots is originals[("cylspec.indicial", "find_roots")]
    assert np.fft.fft is fft and GridFunction.__dict__["to_csv"] is to_csv
