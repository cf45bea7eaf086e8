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


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _originals(tracer):
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in tracer.TRACED_FUNCTIONS
    }


def test_tracer_installs_counts_and_restores(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    originals = _originals(tracer)
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


def test_lattice_symbol_work_is_traced_at_half_the_lattice(cold, monkeypatch):
    # The profile solve's lattice symbol goes through specfun.log_gamma, so
    # the trace counts it, and costs two log-Gammas per non-negative
    # frequency: 2 * 3841 on the 7681-point lattice, plus the two scalar
    # points of the Hardy constant.  Cold: the lattice is shared with any
    # earlier (3, 0.5) solve on it, whatever its kappa.
    tracer = _load_tracer(monkeypatch)
    originals = _originals(tracer)
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    guess = GridFunction.from_callable(lambda t: 0.5 / np.cosh(t))
    assert guess.n_points == 7681

    traced = tracer.Tracer()
    traced.install()
    try:
        assert cylspec.solve_profile(params, guess).converged
    finally:
        traced.uninstall()

    assert 2 * 3841 <= traced.counts["specfun.log_gamma.points"] <= 2 * 3841 + 4
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn, f"{mod}.{attr}"
