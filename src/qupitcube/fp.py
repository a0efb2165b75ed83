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


class SingularMatrixError(ValueError):
    """Raised when a matrix required to be invertible is singular."""


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


def mat_rref(M, p: int, n_pivot_cols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``M`` over F_p.

    Returns ``(R, pivot_cols)``.  Pivoting picks the first nonzero entry
    in each column (deterministic; there are no conditioning concerns in
    exact arithmetic).  Entries above and below each pivot are cleared,
    and pivots are scaled to 1.  With ``n_pivot_cols`` set, pivots are
    searched only in the leading columns while row operations still act
    on the full width (block elimination against one column block).
    """
    R = normalize(M, p).copy()
    m, n = R.shape
    if n_pivot_cols is None:
        n_pivot_cols = n
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_pivot_cols):
        if r >= m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = (R[r] * fp_inv(R[r, c], p)) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, c], R[r])) % p
        pivot_cols.append(c)
        r += 1
    return R, pivot_cols


def mat_rank(M, p: int) -> int:
    """Rank of ``M`` over F_p."""
    return len(mat_rref(M, p)[1])


def nullspace(M, p: int) -> np.ndarray:
    """Basis of the right nullspace of ``M`` over F_p, one vector per row.

    Returns a ``(dim, n)`` array; ``dim`` may be 0.  A matrix with zero
    rows has the full space as its nullspace.
    """
    M = normalize(M, p)
    m, n = M.shape
    if m == 0:
        return np.eye(n, dtype=np.int64)
    R, pivot_cols = mat_rref(M, p)
    pivots = set(pivot_cols)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free_cols), n), dtype=np.int64)
    for k, f in enumerate(free_cols):
        basis[k, f] = 1
        for i, c in enumerate(pivot_cols):
            basis[k, c] = (-R[i, f]) % p
    return basis
