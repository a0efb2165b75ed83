"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy ``int64`` arrays with entries reduced into ``[0, p)``.
All routines are pure: inputs are never mutated and every result is exact
(no floating point anywhere).  Polynomials are plain Python lists of
coefficients, lowest degree first, trimmed so the leading coefficient is
nonzero (the zero polynomial is ``[0]``).
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


def mat_mul(A, B, p: int) -> np.ndarray:
    """Exact matrix product mod p."""
    return (normalize(A, p) @ normalize(B, p)) % p


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
    free_cols = [c for c in range(n) if c not in set(pivot_cols)]
    basis = np.zeros((len(free_cols), n), dtype=np.int64)
    for k, f in enumerate(free_cols):
        basis[k, f] = 1
        for i, c in enumerate(pivot_cols):
            basis[k, c] = (-R[i, f]) % p
    return basis


def mat_det(M, p: int) -> int:
    """Determinant of a square matrix over F_p."""
    A = normalize(M, p).copy()
    m, n = A.shape
    if m != n:
        raise ValueError(f"determinant needs a square matrix, got {m}x{n}")
    det = 1
    for c in range(n):
        nz = np.nonzero(A[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = c + int(nz[0])
        if pr != c:
            A[[c, pr]] = A[[pr, c]]
            det = (-det) % p
        piv = int(A[c, c])
        det = (det * piv) % p
        inv = fp_inv(piv, p)
        below = np.nonzero(A[c + 1:, c])[0]
        if below.size:
            rows = c + 1 + below
            factors = (A[rows, c] * inv) % p
            A[rows] = (A[rows] - np.outer(factors, A[c])) % p
    return det


def mat_inverse(M, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p.  Raises SingularMatrixError."""
    M = normalize(M, p)
    m, n = M.shape
    if m != n:
        raise ValueError(f"inverse needs a square matrix, got {m}x{n}")
    aug = np.concatenate([M, np.eye(n, dtype=np.int64)], axis=1)
    R, pivot_cols = mat_rref(aug, p)
    if pivot_cols[:n] != list(range(n)):
        raise SingularMatrixError(f"matrix is singular mod {p}")
    return R[:, n:]


def solve(A, b, p: int) -> np.ndarray | None:
    """One exact solution of ``A x = b`` over F_p, or ``None`` if inconsistent.

    Free variables are set to 0.
    """
    A = normalize(A, p)
    b = normalize(b, p).reshape(-1)
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivot_cols = mat_rref(aug, p)
    if n in pivot_cols:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivot_cols):
        x[c] = R[i, n]
    return x


# ---------------------------------------------------------------------------
# Polynomials over F_p (coefficient lists, lowest degree first)


def poly_trim(c: list[int], p: int) -> list[int]:
    c = [int(x) % p for x in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c if c else [0]


def poly_is_zero(c: list[int]) -> bool:
    return all(x == 0 for x in c)


def poly_deg(c: list[int]) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return -1 if poly_is_zero(c) else len(c) - 1


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if poly_is_zero(a) or poly_is_zero(b):
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out, p)


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``a / b`` over F_p."""
    a = poly_trim(a, p)
    b = poly_trim(b, p)
    if poly_is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(1, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = fp_inv(b[-1], p)
    while not poly_is_zero(r) and len(r) >= len(b):
        shift = len(r) - len(b)
        coef = (r[-1] * inv_lead) % p
        q[shift] = coef
        for i, x in enumerate(b):
            r[shift + i] = (r[shift + i] - coef * x) % p
        r = poly_trim(r, p)
    return poly_trim(q, p), r


def poly_divides(a: list[int], b: list[int], p: int) -> bool:
    """True when ``a`` divides ``b`` exactly over F_p."""
    if poly_is_zero(a):
        return poly_is_zero(b)
    _, r = poly_divmod(b, a, p)
    return poly_is_zero(r)


def poly_monic(a: list[int], p: int) -> list[int]:
    a = poly_trim(a, p)
    if poly_is_zero(a):
        return a
    inv = fp_inv(a[-1], p)
    return [(x * inv) % p for x in a]


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = poly_trim(a, p), poly_trim(b, p)
    while not poly_is_zero(b):
        _, r = poly_divmod(a, b, p)
        a, b = b, r
    return poly_monic(a, p)


def poly_lcm(a: list[int], b: list[int], p: int) -> list[int]:
    if poly_is_zero(a) or poly_is_zero(b):
        return [0]
    g = poly_gcd(a, b, p)
    q, _ = poly_divmod(poly_mul(a, b, p), g, p)
    return poly_monic(q, p)


def poly_eval_mat(c: list[int], T, p: int) -> np.ndarray:
    """Evaluate the polynomial at a square matrix (Horner), mod p."""
    T = normalize(T, p)
    n = T.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for coef in reversed(poly_trim(c, p)):
        out = (out @ T + coef * np.eye(n, dtype=np.int64)) % p
    return out


def char_poly_2x2(T, p: int) -> list[int]:
    """Characteristic polynomial x^2 - tr(T) x + det(T) of a 2x2 block."""
    T = normalize(T, p)
    if T.shape != (2, 2):
        raise ValueError("closed form is for 2x2 matrices only")
    tr = int(T[0, 0] + T[1, 1]) % p
    det = int(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]) % p
    return [det, (-tr) % p, 1]


def krylov_min_poly(T, v, p: int) -> list[int]:
    """Least-degree monic m with m(T) v = 0.

    The Krylov vectors v, Tv, ..., T^(d-1)v are linearly independent when
    the result has degree d.  The zero vector yields the constant 1.
    """
    T = normalize(T, p)
    v = normalize(v, p).reshape(-1)
    if not v.any():
        return [1]
    rows = [v]
    while True:
        nxt = (T @ rows[-1]) % p
        K = np.stack(rows, axis=1)  # n x k, columns are Krylov vectors
        coeffs = solve(K, nxt, p)
        if coeffs is not None:
            k = len(rows)
            return poly_trim([(-int(coeffs[i])) % p for i in range(k)] + [1], p)
        rows.append(nxt)


def matrix_min_poly(T, p: int) -> list[int]:
    """Least-degree monic m with m(T) = 0, via lcm of per-basis-vector polys."""
    T = normalize(T, p)
    n = T.shape[0]
    m = [1]
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        m = poly_lcm(m, krylov_min_poly(T, e, p), p)
        if poly_deg(m) == n:
            break
    return m
