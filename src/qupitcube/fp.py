"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
All routines are pure: inputs are never mutated and every result is exact
(no floating point anywhere).
"""

from __future__ import annotations

import numpy as np


# Largest accepted modulus.  Entries are reduced into [0, p), so an int64
# inner product of length n is bounded by n (p - 1)^2, and
# (p - 1)^2 * 2^22 < 2^63: every int64 product in the package stays exact
# for inner dimensions up to 2^22.
MAX_MODULUS = 1 << 20


def check_prime(p: int) -> int:
    """Validate that ``p`` is a prime in [2, MAX_MODULUS] and return it.

    Trial division is plenty for the moduli this toolkit targets
    (single-digit primes in practice).
    """
    if not isinstance(p, (int, np.integer)):
        raise TypeError(f"modulus must be an integer, got {type(p).__name__}")
    p = int(p)
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if p > MAX_MODULUS:
        raise ValueError(f"modulus must be <= {MAX_MODULUS} so int64 arithmetic "
                         f"stays exact, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus must be prime, got {p} = {d} * {p // d}")
        d += 1
    return p


def normalize(M, p: int) -> np.ndarray:
    """Return ``M`` as an int64 array with entries reduced mod p."""
    return np.asarray(M, dtype=np.int64) % p


def fp_inv(x: int, p: int) -> int:
    """Multiplicative inverse of ``x`` mod p.  Raises ZeroDivisionError on 0."""
    x = int(x) % p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(x, -1, p)


def inverse(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverse mod p of an int64 array of nonzero residues, by
    Fermat's x^(p-2): about 2 log2(p) array products, and no table of
    size p."""
    out, base, e = np.ones_like(x), x % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def mat_rref(M, p: int, n_pivot_cols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``M`` over F_p.

    Returns ``(R, pivot_cols)``.  Pivoting picks the first nonzero entry
    in each column (deterministic; there are no conditioning concerns in
    exact arithmetic).  Entries above and below each pivot are cleared,
    and pivots are scaled to 1.  With ``n_pivot_cols`` set, pivots are
    searched only in the leading columns while row operations still act
    on the full width (block elimination against one column block).
    Each pivot takes one step on columns c.. (the pivot row is zero left
    of c): column c times the scaled pivot row, off the other rows nonzero at c.
    """
    R = normalize(M, p)  # a new array: ``% p`` never returns its input
    m, n = R.shape
    if n_pivot_cols is None:
        n_pivot_cols = n
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_pivot_cols):
        if r >= m:
            break
        rows = np.flatnonzero(R[:, c])
        k = int(rows.searchsorted(r))
        if k == len(rows):
            continue
        pr = int(rows[k])  # the first nonzero at or below row r
        row = R[pr, c:] * pow(int(R[pr, c]), -1, p) % p
        if pr != r:
            R[pr] = R[r]  # zero at c, so the step leaves it as it is
        if len(rows) > 1:  # row r, if in rows, is cleared, then overwritten
            R[rows, c:] = (R[rows, c:] - R[rows, c, None] * row) % p
        R[r, c:] = row
        pivot_cols.append(c)
        r += 1
    return R, pivot_cols


def mat_rref_stack(M: np.ndarray, p: int, n_pivot_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``mat_rref`` of every matrix of a stack ``M`` of shape (B, m, c)
    against its first ``n_pivot_cols`` columns, one pass over those columns
    for the whole stack.

    Returns ``(R, pivoted)``: ``R[b]`` equals ``mat_rref(M[b], p,
    n_pivot_cols)[0]`` entry for entry (same pivot rows, same row swaps),
    and ``pivoted[b, c]`` is True when column c is a pivot of member b.
    Each member keeps its own rank, so its pivot rows differ once one of
    its columns has no pivot.
    """
    R = normalize(M, p)  # a new array: ``% p`` never returns its input
    B, m, _ = R.shape
    rank = np.zeros(B, dtype=np.int64)
    pivoted = np.zeros((B, n_pivot_cols), dtype=bool)
    rows = np.arange(m)
    for c in range(n_pivot_cols):
        candidates = (R[:, :, c] != 0) & (rows >= rank[:, None])
        has = candidates.any(axis=1)
        b = np.flatnonzero(has)
        if not b.size:
            continue
        r, pr = rank[b], candidates[b].argmax(axis=1)
        # the pivot row is zero left of c, so only columns c.. change
        swapped = R[b, pr, c:]
        R[b, pr, c:] = R[b, r, c:]
        row = np.zeros((B, R.shape[2] - c), dtype=np.int64)
        row[b] = swapped * inverse(swapped[:, 0], p)[:, None] % p
        col = R[:, :, c] * has[:, None]
        col[b, r] = 0
        R[:, :, c:] -= col[:, :, None] * row[:, None, :]
        R[:, :, c:] %= p
        R[b, r, c:] = row[b]
        pivoted[b, c] = True
        rank[b] += 1
    return R, pivoted


def mat_rank(M, p: int) -> int:
    """Rank of ``M`` over F_p."""
    return len(mat_rref(M, p)[1])


def mat_power(M, e: int, p: int) -> np.ndarray:
    """``M``^e over F_p for a square ``M`` and e >= 0, by repeated squaring."""
    base, out = normalize(M, p), None
    while True:
        if e & 1:
            out = base if out is None else out @ base % p
        e >>= 1
        if not e:
            return np.eye(len(base), dtype=np.int64) if out is None else out
        base = base @ base % p


def _non_pivots(n: int, pivots: list[int]) -> list[int]:
    pivot_set = set(pivots)
    return [c for c in range(n) if c not in pivot_set]


def nullspace(M, p: int) -> np.ndarray:
    """Basis of the right nullspace of ``M`` over F_p, one vector per row.

    Returns a ``(dim, n)`` array; ``dim`` may be 0.  A matrix with zero
    rows has the full space as its nullspace.  Each basis vector is 1 at
    its own free column and 0 at the others.  ``mat_rref`` reduces ``M`` mod p.
    """
    m, n = np.shape(M)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    R, pivot_cols = mat_rref(M, p)
    free = _non_pivots(n, pivot_cols)
    basis = np.zeros((len(free), n), dtype=np.int64)
    if free:
        basis[range(len(free)), free] = 1
        basis[:, pivot_cols] = (-R[:len(pivot_cols), free]).T % p
    return basis
