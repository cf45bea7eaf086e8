"""Per-layer tracing from outside the program.

The layers are the cylspec modules.  A span is opened around every call
into a traced public function; a layer's self time is its spans' time
minus the time of the spans they enclose.  cylspec modules bind names at
import (``from .specfun import log_gamma``), so a wrapper replaces the
function in every cylspec module namespace that holds it, which is where
the callers look the name up.  numpy FFTs are counted against the
innermost cylspec layer active when they run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span key); the key's first component is the layer.
TRACED_FUNCTIONS = [
    ("cylspec.specfun", "log_gamma", "specfun.log_gamma"),
    ("cylspec.specfun", "digamma", "specfun.digamma"),
    ("cylspec.specfun", "hyp2f1", "specfun.hyp2f1"),
    ("cylspec.symbol", "theta", "symbol.theta"),
    ("cylspec.symbol", "theta_derivative", "symbol.theta_derivative"),
    ("cylspec.symbol", "kernel_K0", "symbol.kernel_K0"),
    ("cylspec.indicial", "find_roots", "indicial.find_roots"),
    ("cylspec.indicial", "certified_count", "indicial.certified_count"),
    ("cylspec.indicial", "residue_at", "indicial.residue_at"),
    ("cylspec.greens", "build_greens", "greens.build_greens"),
    ("cylspec.greens", "solve_convolution", "greens.solve_convolution"),
    ("cylspec.greens", "solve_ode_system", "greens.solve_ode_system"),
    ("cylspec.greens", "component_solutions", "greens.component_solutions"),
    ("cylspec.greens", "greens_quadrature_oracle", "greens.oracle"),
    ("cylspec.greens", "fftconvolve", "greens.fftconvolve"),
    ("cylspec.nonlinear", "solve_profile", "nonlinear.solve_profile"),
    ("cylspec.nonlinear", "gmres", "nonlinear.gmres"),
    ("cylspec.profiles", "bubble_residual", "profiles.bubble_residual"),
    ("cylspec.profiles", "frobenius_fit", "profiles.frobenius_fit"),
    ("cylspec.profiles", "riesz_kernel_theta", "profiles.riesz_kernel_theta"),
    ("cylspec.identities", "pohozaev_check", "identities.pohozaev_check"),
    ("cylspec.identities", "wronskian", "identities.wronskian"),
    ("cylspec.identities", "wronskian_defect", "identities.wronskian_defect"),
    ("cylspec.cli", "main", "cli.main"),
]

# GridFunction serialization, timed as the grid layer's I/O.
GRID_IO_METHODS = ("to_csv", "from_csv", "to_json", "from_json")

# Positional index of the argument whose size is counted as points.
_POINT_ARGS = {"specfun.log_gamma": 0, "symbol.theta": 2}


def _points(arg):
    size = getattr(arg, "size", None)
    return int(size) if size is not None else 1


@functools.lru_cache(maxsize=None)
def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


class Tracer:
    """Span stack plus per-key self time and counters, kept in memory."""

    def __init__(self):
        self.stack = []  # [key, time spent in enclosed spans]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._restore = []

    def _span(self, key, fn, args, kwargs):
        self.stack.append([key, 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            _, inner = self.stack.pop()
            self.self_s[key] += dt - inner
            if self.stack:
                self.stack[-1][1] += dt

    def _wrap(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            if key in _POINT_ARGS:
                counts[key + ".points"] += _points(args[_POINT_ARGS[key]])
            result = self._span(key, fn, args, kwargs)
            if key == "indicial.find_roots":
                counts["indicial.roots"] += len(result)
            elif key == "nonlinear.solve_profile":
                counts["nonlinear.newton_iterations"] += result.iterations
            elif key == "nonlinear.gmres" and result[1] != 0:
                counts["nonlinear.gmres.unconverged"] += 1
            elif key == "greens.fftconvolve":
                counts[key + ".points"] += _points(args[0]) + _points(args[1])
            return result

        return wrapper

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            layer = self.stack[-1][0].split(".")[0] if self.stack else "outside"
            key = layer + ".fft"
            n = len(a)
            self.counts[key + ".calls"] += 1
            self.counts[key + ".points"] += n
            if _is_prime(n):
                self.counts[key + ".prime_length_calls"] += 1
            return self._span(key, fn, (a,) + args, kwargs)

        return wrapper

    def _wrap_io(self, fn):
        @functools.wraps(fn)
        def wrapper(first, path, *args, **kwargs):
            result = self._span("grid.io", fn, (first, path) + args, kwargs)
            self.counts["grid.io.bytes"] += os.path.getsize(path)
            return result

        return wrapper

    def install(self):
        """Put the wrappers in place; :meth:`uninstall` undoes every change."""
        import numpy.fft

        import cylspec.cli  # noqa: F401  (loads every cylspec module)
        from cylspec.grid import GridFunction

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cylspec" or name.startswith("cylspec."))]
        for mod_name, attr, key in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        for attr in ("fft", "ifft"):
            self._set(numpy.fft, attr, self._wrap_fft(getattr(numpy.fft, attr)))
        for attr in GRID_IO_METHODS:
            raw = GridFunction.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(GridFunction, attr, classmethod(self._wrap_io(raw.__func__)))
            else:
                self._set(GridFunction, attr, self._wrap_io(raw))

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
