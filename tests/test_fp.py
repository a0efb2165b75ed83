"""Prime-field linear algebra: worked examples and randomized invariants."""

import random

import numpy as np
import pytest

from qupitcube import fp, reference, transfer
from qupitcube.codes import CodeParams
from qupitcube.conditions import theorem1_report

PRIMES = (3, 5, 7)


def test_check_prime():
    for p in (2, 3, 5, 7, 11):
        assert fp.check_prime(p) == p
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            fp.check_prime(bad)


def test_inverse_examples():
    for p in PRIMES:
        assert fp.fp_inv(1, p) == 1
    assert fp.fp_inv(2, 5) == 3       # extended Euclid by hand: 2*3 = 6 = 1 mod 5
    assert fp.fp_inv(3, 7) == 5       # 3*5 = 15 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        fp.fp_inv(0, 5)


def test_modulus_bound():
    # past 2^20 an int64 product of two residues can overflow
    with pytest.raises(ValueError):
        fp.check_prime(4294967291)
    with pytest.raises(ValueError):
        CodeParams(4294967291, (1, 0), (0, 1), (1, 1), (1, 2))
    p = 1048573                       # largest prime <= MAX_MODULUS = 2^20
    assert fp.MAX_MODULUS == 2**20 and fp.check_prime(p) == p
    code = CodeParams(p, (1, 0), (0, 1), (1, 1), (p - 1, p - 2))
    assert code.delta == (p - 1, p - 2)
    assert (reference.mat_mul([[p - 1]], [[p - 2]], p) == [[2]]).all()
    assert reference.mat_det([[p - 1, p - 2], [p - 3, p - 1]], p) == (1 - 6) % p
    assert theorem1_report(code).deformability


def test_mat_reduce_examples():
    def reduce(M, p):
        return fp.mat_rank(M, p), fp.nullspace(M, p), reference.mat_det(M, p)

    rank, ns, det = reduce(np.eye(2, dtype=int), 5)
    assert (rank, len(ns), det) == (2, 0, 1)

    rank, ns, det = reduce([[1, 0], [1, 4]], 5)
    assert (rank, det) == (2, 4)      # cofactor expansion: 1*4 - 0*1

    rank, ns, det = reduce(np.zeros((3, 3), dtype=int), 5)
    assert (rank, len(ns), det) == (0, 3, 0)


def test_mat_inverse_examples():
    assert (reference.mat_inverse(np.eye(3, dtype=int), 7) == np.eye(3, dtype=int)).all()
    inv = reference.mat_inverse([[2, 0], [0, 3]], 5)
    assert (inv == [[3, 0], [0, 2]]).all()
    inv = reference.mat_inverse([[1, 1], [0, 1]], 3)
    assert (inv == [[1, 2], [0, 1]]).all()
    with pytest.raises(reference.SingularMatrixError):
        reference.mat_inverse([[1, 2], [2, 4]], 5)


def test_krylov_min_poly_examples():
    p = 5
    assert reference.krylov_min_poly(np.eye(2, dtype=int), [1, 0], p) == [p - 1, 1]  # x - 1
    N = [[0, 1], [0, 0]]
    assert reference.krylov_min_poly(N, [1, 0], p) == [0, 1]       # Tv = 0, so x
    assert reference.krylov_min_poly(N, [0, 1], p) == [0, 0, 1]    # T^2 v = 0, so x^2
    assert reference.krylov_min_poly(N, [0, 0], p) == [1]          # zero vector


def test_matrix_min_poly_examples():
    p = 5
    assert reference.matrix_min_poly(np.eye(2, dtype=int), p) == [p - 1, 1]
    assert reference.matrix_min_poly([[0, 1], [0, 0]], p) == [0, 0, 1]
    # (x-1)(x-2) = x^2 - 3x + 2
    assert reference.matrix_min_poly([[1, 0], [0, 2]], p) == [2, 2, 1]


def test_poly_division():
    p = 5
    a = reference.poly_mul([1, 1], [2, 3], p)
    q, r = reference.poly_divmod(a, [1, 1], p)
    assert q == [2, 3] and reference.poly_is_zero(r)
    assert reference.poly_divides([1, 1], a, p)
    assert not reference.poly_divides([2, 1], a, p)
    assert reference.poly_gcd(a, [1, 1], p) == reference.poly_monic([1, 1], p)


def _random_matrix(rng, p, rows, cols):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def test_rank_nullspace_invariants():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(1000):
            n = rng.randrange(1, 6)
            M = _random_matrix(rng, p, n, n)
            rank, ns, det = fp.mat_rank(M, p), fp.nullspace(M, p), reference.mat_det(M, p)
            assert rank == fp.mat_rank(M.T, p)
            assert rank + len(ns) == n
            for v in ns:
                assert not ((M @ v) % p).any()
            assert (det != 0) == (len(ns) == 0)
            if det != 0:
                assert (reference.mat_mul(reference.mat_inverse(M, p), M, p) == np.eye(n, dtype=int)).all()


def test_nullspace_basis_is_reduced_on_the_free_columns():
    # the basis is the unique one that is the identity on the non-pivot
    # columns of the reduced echelon form, which witnesses rely on
    rng = random.Random(17)
    for p in (2,) + PRIMES:
        for _ in range(400):
            rows, cols = rng.randrange(0, 7), rng.randrange(1, 8)
            M = _random_matrix(rng, p, rows, cols).reshape(rows, cols)
            if rows > 1 and rng.random() < 0.5:  # repeat rows to lower the rank
                M[rng.randrange(rows)] = M[0]
            pivots = fp.mat_rref(M, p)[1] if rows else []
            free = [c for c in range(cols) if c not in pivots]
            ns = fp.nullspace(M, p)
            assert ns.dtype == np.int64 and ns.shape == (len(free), cols)
            assert (ns[:, free] == np.eye(len(free), dtype=np.int64)).all()
            assert not ((M @ ns.T) % p).any()
            assert ((0 <= ns) & (ns < p)).all()


def _nullspace_by_loop(M, p):
    """The free x pivot double loop ``fp.nullspace`` assembled its basis with."""
    M = fp.normalize(M, p)
    rows, cols = M.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    R, pivot_cols = fp.mat_rref(M, p)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), cols), dtype=np.int64)
    for k, f in enumerate(free_cols):
        basis[k, f] = 1
        for i, c in enumerate(pivot_cols):
            basis[k, c] = (-R[i, f]) % p
    return basis


def test_nullspace_matches_loop_assembly():
    rng = random.Random(19)
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 5), dtype=np.int64),
             np.eye(4, dtype=np.int64), np.zeros((2, 0), dtype=np.int64),
             np.array([[1, 2, 0], [2, 4, 0]])]
    kinds = set()
    for p in (2,) + PRIMES:
        for _ in range(150):
            rows, cols = rng.randrange(0, 9), rng.randrange(1, 10)
            M = _random_matrix(rng, p, rows, cols).reshape(rows, cols)
            if rows > 2 and rng.random() < 0.4:  # dependent rows lower the rank
                M[-1] = (M[0] + 2 * M[1]) % p
            cases.append(M)
        for M in cases:
            ns = fp.nullspace(M, p)
            loop = _nullspace_by_loop(M, p)
            assert ns.dtype == loop.dtype and np.array_equal(ns, loop), (p, M)
            rank = M.shape[1] - len(ns)
            kinds.add("zero rows" if not M.shape[0] else "rank 0" if not rank
                      else "full rank" if rank == min(M.shape) else "deficient")
    assert kinds == {"zero rows", "rank 0", "full rank", "deficient"}


def test_transfer_parametrises_the_two_block_solutions():
    # x = A y + F z with v y = 0 is exactly the kernel of M [x; y]
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(60):
            n, m = rng.randrange(0, 4), rng.randrange(0, 4)
            rows = rng.randrange(0, 6)
            M = _random_matrix(rng, p, rows, n + m).reshape(rows, n + m)
            A, F, v = transfer.transfer(M, n, p)
            assert A.shape == (n, m) and F.shape[0] == n and v.shape[1] == m
            kernel = fp.nullspace(M, p)
            # every (F z + A y, y) with v y = 0 solves M, and they fill the kernel
            ys = fp.nullspace(v, p)
            params = [np.concatenate([A @ y % p, y]) for y in ys]
            params += [np.concatenate([f, np.zeros(m, dtype=np.int64)]) for f in F.T]
            span = np.array(params, dtype=np.int64).reshape(len(params), n + m)
            assert not (M @ span.T % p).any()
            assert fp.mat_rank(span, p) == len(span) == len(kernel)


def test_stacked_elimination_matches_each_member():
    # same R as mat_rref, entry for entry, and the same pivots, whatever
    # each member's rank; rank-deficient members shift their pivot rows
    rng = random.Random(31)
    deficient = 0
    for p in (2, 3, 5, 1048573):
        for _ in range(40):
            B, m, c = rng.randrange(0, 6), rng.randrange(1, 8), rng.randrange(1, 10)
            n = rng.randrange(0, c + 1)
            M = _random_matrix(rng, p, B * m, c).reshape(B, m, c)
            M[np.array([rng.random() < 0.5 for _ in range(M.size)], dtype=bool).reshape(M.shape)] = 0
            R, pivoted = fp.mat_rref_stack(M, p, n)
            assert R.shape == M.shape and pivoted.shape == (B, n)
            for b in range(B):
                R1, pivots = fp.mat_rref(M[b], p, n)
                assert np.array_equal(R[b], R1), (p, M[b], n)
                assert np.flatnonzero(pivoted[b]).tolist() == pivots
                deficient += len(pivots) < min(m, n)
    assert deficient > 50


def test_elimination_at_torus_sizes_matches_the_stack():
    # the torus eliminates row transfers, 2 dv x 4 dv against their first
    # 2 dv columns with dv <= 16, and square closures, dense and sparse
    rng = np.random.default_rng(41)
    shapes = [(2 * dv, 4 * dv, 2 * dv) for dv in (1, 2, 5, 16)]
    shapes += [(s, s, None) for s in (3, 30, 64, 80)]
    deficient = 0
    for p in (2, 3, 5, 31, 1048573):
        for m, c, n in shapes:
            for density in (0.05, 0.5):
                M = rng.integers(0, p, (2, m, c)) * (rng.random((2, m, c)) < density)
                M[1, m // 2:] = 2 * M[1, :m - m // 2]  # half its rows repeated
                M += p * rng.integers(-2, 3, M.shape)  # unreduced entries
                before = M.copy()
                R, pivoted = fp.mat_rref_stack(M, p, c if n is None else n)
                for b in range(2):
                    R1, pivots = fp.mat_rref(M[b], p, n)
                    assert np.array_equal(R[b], R1), (p, m, c, density)
                    assert np.flatnonzero(pivoted[b]).tolist() == pivots
                    deficient += len(pivots) < min(m, c if n is None else n)
                assert np.array_equal(M, before)
    assert deficient > 40
    for shape, n in (((0, 6), None), ((0, 6), 3), ((4, 0), None), ((0, 0), None)):
        R, pivots = fp.mat_rref(np.zeros(shape, dtype=np.int64), 5, n)
        assert R.shape == shape and pivots == []
    assert fp.nullspace(np.zeros((0, 3), dtype=np.int64), 5).tolist() == np.eye(3).tolist()
    assert fp.nullspace(np.zeros((2, 0), dtype=np.int64), 5).shape == (0, 0)


def test_elementwise_inverse_matches_pow():
    rng = random.Random(37)
    for p in (2, 3, 5, 7, 11, 1048573):
        x = np.array([rng.randrange(1, p) for _ in range(50)] + [1, p - 1], dtype=np.int64)
        assert fp.inverse(x, p).tolist() == [pow(int(a), -1, p) for a in x]


def test_mat_power_matches_repeated_products():
    rng = random.Random(29)
    for p in PRIMES:
        for _ in range(30):
            n = rng.randrange(0, 5)
            M = _random_matrix(rng, p, n, n).reshape(n, n)
            expected = np.eye(n, dtype=np.int64)
            for e in range(10):
                assert np.array_equal(fp.mat_power(M, e, p), expected), (M, e)
                expected = expected @ M % p


def test_divisibility_chain_and_krylov_independence():
    rng = random.Random(13)
    for p in PRIMES:
        for _ in range(500):
            T = _random_matrix(rng, p, 2, 2)
            v = np.array([rng.randrange(p), rng.randrange(p)], dtype=np.int64)
            mv = reference.krylov_min_poly(T, v, p)
            mt = reference.matrix_min_poly(T, p)
            chi = reference.char_poly_2x2(T, p)
            assert reference.poly_divides(mv, mt, p)
            assert reference.poly_divides(mt, chi, p)
            assert not reference.poly_eval_mat(mt, T, p).any()
            d = reference.poly_deg(mv)
            if d > 0:
                krylov = [v]
                for _ in range(d - 1):
                    krylov.append((T @ krylov[-1]) % p)
                assert fp.mat_rank(np.stack(krylov), p) == d
        # krylov | matrix for larger sizes (char closed form is 2x2 only)
        for _ in range(100):
            n = rng.randrange(3, 6)
            T = _random_matrix(rng, p, n, n)
            v = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            assert reference.poly_divides(reference.krylov_min_poly(T, v, p),
                                   reference.matrix_min_poly(T, p), p)


def test_solve_consistency():
    rng = random.Random(17)
    for p in PRIMES:
        for _ in range(200):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            A = _random_matrix(rng, p, m, n)
            x = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            b = (A @ x) % p
            sol = reference.solve(A, b, p)
            assert sol is not None
            assert ((A @ sol) % p == b).all()


def test_stacked_transfer_blocks_match_each_member():
    # members of one stack share their pivot columns; each member's blocks
    # must be transfer's, rank-deficient members and empty v included
    rng = random.Random(41)
    kinds = set()
    for p in (2, 3, 5):
        for _ in range(40):
            n, m, c = rng.randrange(0, 5), rng.randrange(0, 7), rng.randrange(0, 5)
            M = _random_matrix(rng, p, 6 * m, n + c).reshape(6, m, n + c)
            M[np.array([rng.random() < 0.5 for _ in range(M.size)], dtype=bool).reshape(M.shape)] = 0
            R, pivoted = fp.mat_rref_stack(M, p, n)
            for pattern in {tuple(row) for row in pivoted.tolist()}:
                members = [b for b in range(6) if tuple(pivoted[b].tolist()) == pattern]
                pivots = np.flatnonzero(pattern).tolist()
                A, F, v = transfer.transfer_blocks(R[members], pivots, n, p)
                assert A.shape == (len(members), n, c) and v.shape == (len(members), m - len(pivots), c)
                for j, b in enumerate(members):
                    A1, F1, v1 = transfer.transfer(M[b], n, p)
                    assert np.array_equal(A[j], A1) and np.array_equal(F[j], F1), (p, M[b], n)
                    assert np.array_equal(v[j], v1), (p, M[b], n)
                kinds.add("full" if len(pivots) == n else "deficient")
                kinds.add("empty v" if len(pivots) == m else "v")
    assert kinds == {"full", "deficient", "empty v", "v"}
