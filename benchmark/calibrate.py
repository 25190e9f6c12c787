"""A fixed calibration kernel that measures how fast the host runs now.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within seconds, for every kind of work alike: CPU time tracks
wall time, so the process is not waiting, it is computing more slowly.
Timing this kernel before a workload's first operation and after each
one gives the host's speed at those moments.  The kernel is the
benchmark's own code and calls nothing in the program, so a change to the
program cannot move it.

Its mix follows the program's hot paths: a Python loop over targets doing
small-array numpy work (the per-target quadrature rules and cardinal
rows), elementwise work on mid-sized arrays (kernel matrices), a
contraction (the volume rows) and a small dense solve.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Seconds the kernel takes on the reference host (2-vCPU Intel Xeon VM,
#: one BLAS thread): about the median of 80 calls made next to
#: ``star_families`` repetitions.  Scaled times are expressed at this speed.
NOMINAL_S = 0.30

_rng = np.random.default_rng(20190717)
_TARGETS = _rng.random((160, 2))
_NODES = _rng.random((384, 2))
_A = _rng.random((128, 128)) + 128 * np.eye(128)
_B = _rng.random((128, 8))
_ROWS = _rng.random((96, 4096))
_COLS = _rng.random((4096, 24))


def _per_target() -> float:
    acc = 0.0
    xg = np.linspace(0.0, 1.0, 10)
    for y in _TARGETS:
        theta = 2 * np.pi * np.arange(48) / 48
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ext = 0.5 + 0.1 * np.cos(3 * theta + y[0])
        r = ext[:, None] * xg[None, :]
        pts = y + r[..., None] * dirs[:, None, :]
        k = np.searchsorted(xg, (pts[..., 0] % 1.0).ravel())
        parts = [pts[i, :, 1] * ext[i] for i in range(0, 48, 4)]
        acc += float(np.concatenate(parts).sum()) + int(k[-1])
        for i in range(24):
            acc += (i * 7 % 5) * 1e-9
    return acc


def _dense() -> float:
    d = _NODES[:, None, :] - _NODES[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1]) + 1e-3
    g = np.log(r) * np.exp(-r)
    v = np.einsum("ij,jk->ik", _ROWS, _COLS)
    x = np.linalg.solve(_A, _B)
    return float(g.sum() + v.sum() + x.sum())


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    for _ in range(12):
        _per_target()
    for _ in range(6):
        _dense()
    return time.perf_counter() - start


class Laps:
    """Times a workload's operations at the reference host's speed.

    The kernel runs once at the start and again after every lap, outside
    the timed laps.  Each lap's time is scaled by ``NOMINAL_S`` over the
    geometric mean of the kernel's times on either side of it: the host's
    speed changes within seconds, so the kernel tracks it best when it
    runs right next to the work.
    """

    def __init__(self):
        self.kernel_s = [kernel_s()]
        self.wall_raw_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._restart()

    def _restart(self):
        self._wall_at = time.monotonic()
        self._cpu_at = time.process_time()

    def lap(self):
        """End the lap that is running, calibrate, start the next."""
        wall = time.monotonic() - self._wall_at
        self.cpu_s += time.process_time() - self._cpu_at
        self.kernel_s.append(kernel_s())
        speed = NOMINAL_S / math.sqrt(self.kernel_s[-2] * self.kernel_s[-1])
        self.wall_raw_s += wall
        self.wall_s += wall * speed
        self._restart()
