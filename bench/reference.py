"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the speed of the host changes under the benchmark.
On the 2-vCPU VM where the benchmark was written it switched, every few
seconds to minutes, between a fast state and states in which all code
ran about 1.25x or 1.5x slower; a 40 s run could spend most of its time
in either.  ``worker.py`` therefore times this kernel in short slices
right after the ops, and ``run.py`` scales each call by the kernel's
time next to it, besides reporting the raw times.

The kernel does the same kinds of work as qupitcube (pure-Python tuple
and int arithmetic, and int64 row elimination mod p in numpy) but
imports nothing from it, so no change to the library can change what it
computes."""

from __future__ import annotations

import gc
import time
from itertools import combinations

import numpy as np

P = 7
PAIRS = [(a, b) for a in range(P) for b in range(P) if a or b][:18]
ROWS, COLS = 40, 80
MATRIX = np.random.default_rng(0).integers(0, P, size=(ROWS, COLS), dtype=np.int64)
# About the kernel's time in the fast state of the machine where the
# benchmark was written; scaled metrics read as seconds on a host that
# runs the kernel in NOMINAL_S.
NOMINAL_S = 0.0045


def kernel() -> int:
    # tuple and int work like the deformability scan: the six symplectic
    # products of every quadruple of a fixed set of pairs mod P
    count = 0
    for t in combinations(PAIRS, 4):
        if all((u[0] * v[1] - u[1] * v[0]) % P for u, v in combinations(t, 2)):
            count += 1
    # int64 row elimination mod P, like fp.mat_rref
    M = MATRIX.copy()
    r = 0
    for c in range(COLS):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        M[[r, k]] = M[[k, r]]
        M[r] = M[r] * pow(int(M[r, c]), P - 2, P) % P
        f = M[:, c].copy()
        f[r] = 0
        M = (M - np.outer(f, M[r])) % P
        r += 1
        if r == ROWS:
            break
    return count + r


def timed() -> float:
    """One timed call of the kernel.  The cyclic garbage collector is off
    for it, so that objects the library keeps alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

