"""The machine's speed, measured on fixed work that uses no glct code.

On a shared host the same pass of the same code can run up to twice as slow
for stretches of a second to minutes, and the slowdown shows in CPU time as
much as in wall time (it is not steal time). A run therefore times a short
burst of fixed reference work before every timed step and after the last
one, and divides each step's seconds by how slow the reference work ran
around it.

Each in-process workload names the reference work that resembles its own:
``calls`` (Python calls, numpy on arrays of a few hundred entries, LAPACK and
BLAS on 96 x 96 matrices) for the many small transforms of ``nmse_suites``,
and ``arrays`` (numpy on arrays of a few hundred entries, BLAS mode products
and sorting on a 100 x 15 tensor) for the larger tensors of ``compression``.
``large_graph_cli`` names ``lapack`` (a 200 x 200 symmetric eigensolve and
matrix-vector products), because most of a CLI call is the eigensolve of
``eig_unitary``. The same slowdown slows pure-Python code more than array
code, so one mix over- or under-corrects the other workloads.
The reference work imports nothing from ``glct``, so no change to the
program can move it.
"""
from __future__ import annotations

import time

import numpy as np

#: Seconds one unit of each kind took at the median speed of the machine the
#: benchmark was tuned on (2-vCPU Intel Xeon VM, 2.0 GHz, one BLAS thread).
#: Scaled times read in seconds at that speed.
REFERENCE_UNIT_S = {"calls": 0.0025, "arrays": 0.0012, "lapack": 0.005}

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((16, 16))
_SMALL = _SMALL + _SMALL.T
_VEC = _RNG.standard_normal(288)
_MID = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_HERM = _MID + _MID.conj().T
_MAT = _RNG.standard_normal((100, 100)) + 1j * _RNG.standard_normal((100, 100))
_TENSOR = _RNG.standard_normal((100, 15)) + 0j
_SYM = _RNG.standard_normal((200, 200))
_SYM = _SYM + _SYM.T


def _small_ops() -> float:
    acc = 0.0
    for k in range(12):
        w, v = np.linalg.eigh(_SMALL)
        z = np.exp(1j * (0.1 * k) * _VEC) * _VEC
        acc += float(w[0]) + float(np.abs(v @ v.T).sum()) + float(np.abs(z).sum())
    return acc


def calls_unit() -> float:
    """One fixed piece of ``calls`` work; returns a number so none of it is skipped."""
    acc = _small_ops()
    for i in range(1500):
        d = {"a": i, "b": (i, i + 1)}
        acc += d["a"] * 0.5 + len(d["b"])
    return acc + float(np.linalg.eigvalsh(_HERM)[-1]) + float(np.abs(_MID @ _MID).sum())


def arrays_unit() -> float:
    """One fixed piece of ``arrays`` work; returns a number so none of it is skipped."""
    acc = _small_ops()
    for _ in range(3):
        y = _MAT @ (_MAT @ _TENSOR)
        order = np.argsort(np.abs(y).ravel())
        acc += float(np.sqrt(np.sum(np.abs(y) ** 2))) + float(order[0])
    return acc


def lapack_unit() -> float:
    """One fixed piece of ``lapack`` work; returns a number so none of it is skipped."""
    w, v = np.linalg.eigh(_SYM)
    acc = float(w[0])
    for k in range(0, 200, 4):
        acc += float(np.vdot(v[:, k], _SYM @ v[:, k]))
    return acc


UNITS = {"calls": calls_unit, "arrays": arrays_unit, "lapack": lapack_unit}


def burst(kind: str, min_seconds: float) -> float:
    """Run units of ``kind`` for at least ``min_seconds``; return how many times
    slower than the reference speed the machine ran during the burst."""
    unit = UNITS[kind]
    units = 0
    started = time.perf_counter()
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return elapsed / units / REFERENCE_UNIT_S[kind]
