"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark's host is a share of a machine whose speed drifts by up to 2x
over seconds to minutes, so raw wall times of the same code spread too far
between runs. The benchmark therefore times this kernel right before and
right after every timed op, and after each set-up, and scales each wall time
to the host speed at which the kernel takes ``NOMINAL_S``:

    scaled_s = wall_s * NOMINAL_S / kernel_s

where ``kernel_s`` is the kernel's time next to that op (the mean of the
times before and after it).

The kernel does the kinds of work the program does, in about equal shares:
parsing CSV text into small slotted objects, formatting floats back into
text, many numpy calls on arrays of tens to hundreds of elements, small
least-squares solves, k-d tree neighbour queries, building many small Python
objects, and streaming megabytes through memory. It uses nothing from
``pdcalib``, so a change to the program moves the scaled times and leaves
the kernel as it is.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# the kernel's median time on the host the benchmark was tuned on (Intel
# Xeon, 2 vCPUs): a scaled time reads as seconds at that host's usual speed
NOMINAL_S = 0.042

_RNG = np.random.default_rng(20080)
_ROWS = _RNG.standard_normal((400, 6))
_TEXT = "\n".join(
    f"beam,{i % 50},{i % 16},{i},{a:.6f},{b:.6f},{c:.6f},{d:.6f}"
    for i, (a, b, c, d, _, _) in enumerate(_ROWS)
)
_SIGNAL = _RNG.standard_normal(300)
_A = _RNG.standard_normal((60, 6))
_Y = _RNG.standard_normal(60)
_POINTS = _RNG.uniform(0.0, 1.0, (600, 3))
_BIG = _RNG.standard_normal(250_000)
_OUT = np.empty_like(_BIG)


@dataclass(slots=True)
class _Row:
    scan: int
    channel: int
    index: int
    alpha: float
    omega: float
    r: float
    refl: float


def _parse() -> int:
    rows: dict = {}
    for line in _TEXT.splitlines() * 5:
        p = line.split(",")
        if p[0] == "beam":
            row = _Row(int(p[1]), int(p[2]), int(p[3]), float(p[4]), float(p[5]),
                       float(p[6]), float(p[7]))
            rows.setdefault(row.scan, []).append(row)
    return len(rows)


def _format() -> int:
    rows = list(_ROWS) * 2
    return len("\n".join(",".join(f"{v:.6f}" for v in row) for row in rows))


def _small_arrays() -> float:
    s = 0.0
    for k in range(150):
        x = _SIGNAL * (1.0 + k * 1e-3) - 0.5
        m = x > 0.0
        s += float(np.sqrt(np.abs(x[m])).sum()) + int(np.argmax(x)) + float(np.median(x[:64]))
    return s


def _solves() -> float:
    s = 0.0
    for k in range(120):
        coef, *_ = np.linalg.lstsq(_A + k * 1e-3, _Y, rcond=None)
        s += float(coef[0])
    return s


def _neighbours() -> int:
    n = 0
    for k in range(12):
        n += len(cKDTree(_POINTS + k * 1e-3).query_pairs(0.06))
    return n


def _objects() -> int:
    out = []
    for i in range(15000):
        out.append((i, float(i), str(i)))
    return len(out)


def _memory() -> float:
    s = 0.0
    for k in range(12):
        s += float(np.multiply(_BIG, 1.0 + k, out=_OUT).sum())
    return s


def kernel():
    """One pass of the reference work."""
    return (_parse(), _format(), _small_arrays(), _solves(), _neighbours(), _objects(),
            _memory())


def kernel_seconds() -> float:
    """Time one pass, with the garbage collector paused so that the time
    does not depend on how many objects the program holds."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def scaled(wall_s: float, kernel_s: float) -> float:
    """``wall_s``, measured while the kernel took ``kernel_s``, at the host
    speed where the kernel takes ``NOMINAL_S``."""
    return wall_s * NOMINAL_S / kernel_s


kernel()  # warm caches and lazy imports before the first timed pass
