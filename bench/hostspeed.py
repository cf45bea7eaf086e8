"""The host's speed, measured next to the timed work by fixed reference work.

On a shared host the CPU time of one and the same call drifts by up to a
factor of two, over seconds and over minutes; other tenants sharing the
physical cores and caches are the likely cause.  The worker therefore
runs reference work after every timed operation, for a set share of that
operation's time, so that the reference work runs under the same drift
as the round.
A round's *reference time* is its CPU time over the CPU time of the
reference units run within it, times a unit's nominal cost: the round's
time in seconds on a host on which a unit takes exactly its nominal cost.
The reference work runs no cylspec code, so a change to cylspec moves only
the numerator.

Run as a script, this file is one reference job:

    python3 bench/hostspeed.py 40    # start Python, import numpy, 40 chunks
"""

from __future__ import annotations

import cmath
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np
from numpy.fft import fft, ifft  # bound before the tracer wraps numpy.fft

SHARE = 0.2  # reference CPU time after each operation, as a share of its time
CHUNK_S = 0.005  # nominal CPU time of one reference chunk
JOB_CHUNKS = 40  # chunks in one reference job
JOB_S = 0.5  # nominal CPU time of one reference job
SETUP_JOBS = 2  # reference jobs after set-up
_SMALL = np.exp(1j * np.linspace(0.1, 3.0, 32)) * np.linspace(0.5, 4.0, 32)
_SIGNAL = np.cos(np.linspace(0.0, 400.0, 7681)) * np.exp(-np.linspace(-3.0, 3.0, 7681) ** 2)


def reference_chunk():
    """A fixed computation that runs no cylspec code.

    It mixes the kinds of work the workloads spend their time in: numpy
    calls on small complex arrays, FFTs of prime length 7681, and a scalar
    Python loop.
    """
    acc = 0.0
    for _ in range(80):
        w = np.log(_SMALL * _SMALL + 1.0) - 0.5 * np.exp(-_SMALL)
        acc += float(np.abs(w).sum())
    for _ in range(2):
        acc += float(ifft(fft(_SIGNAL)).real[0])
    for k in range(1, 1000):
        acc += math.lgamma(k * 0.01) + abs(cmath.exp(1j * k))
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation is not finite")


def cpu_seconds():
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class HostSpeed:
    """Reference units run between operations, and their total cost.

    A unit is one reference chunk in this process or, with ``child=True``,
    one reference job: a fresh process that starts Python, imports numpy
    and runs JOB_CHUNKS chunks, as a CLI job or a worker's set-up does.
    """

    def __init__(self, child):
        self.child = child
        self.nominal_s = JOB_S if child else CHUNK_S
        self.cpu = self.wall = 0.0
        self.units = 0

    def _unit(self):
        if self.child:
            subprocess.run([sys.executable, os.path.abspath(__file__), str(JOB_CHUNKS)],
                           check=True, timeout=60)
        else:
            reference_chunk()

    def run(self, cpu_s=0.0):
        """Run units until they have taken cpu_s of CPU time, at least one."""
        t0, c0 = time.perf_counter(), cpu_seconds()
        while True:
            self._unit()
            self.units += 1
            spent = cpu_seconds() - c0
            if spent >= cpu_s:
                break
        self.cpu += spent
        self.wall += time.perf_counter() - t0

    def after_operation(self, op_s):
        self.run(SHARE * op_s)

    def mark(self):
        return self.cpu, self.units, self.wall

    def reference_s(self, cpu_s, since=(0.0, 0, 0.0)):
        """cpu_s in reference time, by the units run since the mark ``since``."""
        cpu, units = self.cpu - since[0], self.units - since[1]
        return cpu_s * self.nominal_s * units / cpu


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        reference_chunk()
