"""The two-block transfer recursion that strips and tori share.

A translation-invariant system couples each consecutive pair (x, y) of
blocks of n unknowns by the same rows, M [x; y] = 0.  Eliminating M
against x (``transfer``) gives its solutions as x = A y + F z with
v y = 0, where z is free and holds x at the non-pivot columns of its
block.  F has no columns when that block has full column rank, as it
always has for a deformable code's strips.

Open strips (``oracle``) chain the recursion along the strip, and
``scan`` decides every length of a stack of strip families at once.
Tori (``logical``) close it cyclically: ``periodic_part`` restricts it to
the states its periodic solutions visit, ``periodic_dims`` counts the
period-L solutions and ``periodic_states`` gives a basis of them.
``unroll`` expands a solution from its parameters in either setting.
"""

from __future__ import annotations

import numpy as np

from . import fp


def transfer(M, n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, F, v)`` of a two-block system ``M [x; y] = 0`` eliminated
    against its first ``n`` columns.  The rows of ``v`` need not be
    independent."""
    R, pivots = fp.mat_rref(M, p, n_pivot_cols=n)
    return tuple(blocks[0] for blocks in transfer_blocks(R[None], pivots, n, p))


def transfer_blocks(R: np.ndarray, pivots: list[int], n: int,
                    p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``transfer``'s ``(A, F, v)`` of each member of a stack ``R`` (B, m, c)
    of block eliminations (``fp.mat_rref`` against the first ``n`` columns,
    or ``fp.mat_rref_stack``) that all have the pivot columns ``pivots``, as
    (B, n, c - n), (B, n, f) and (B, m - r, c - n) stacks."""
    r = len(pivots)
    free = sorted(set(range(n)) - set(pivots))
    # x in terms of every column: the pivot rows solved for their pivots,
    # and z = x at the free columns
    E = np.zeros((R.shape[0], n, R.shape[2]), dtype=np.int64)
    E[:, pivots] = -R[:, :r] % p
    E[:, free, free] = 1
    return E[:, :, n:], E[:, :, free], R[:, r:, n:]


def unroll(kernel: np.ndarray, M: np.ndarray, N: np.ndarray, steps: int,
           p: int) -> np.ndarray:
    """The states c_0..c_steps of c_{j+1} = c_j M + w_j N, one sequence per
    row (c_0, w_0, ..., w_{steps-1}, ...) of ``kernel``, as (rows, steps +
    1, len(M)).  Entries past w_{steps-1} are ignored."""
    n, f = len(M), len(N)
    states = [kernel[:, :n]]
    for j in range(steps):
        steered = kernel[:, n + f * j:n + f * (j + 1)] @ N if f else 0
        states.append((states[-1] @ M + steered) % p)
    return np.stack(states, axis=1)


# ---------------------------------------------------------------------------
# Open strips


def _add_row(X: np.ndarray, j: int, p: int) -> np.ndarray:
    """Add row j of each member's ``X`` (B, rows, t), on t parameters, to
    its reduced constraint space, in place, and return which members
    gained a pivot.

    Row j must already be reduced, zero at every pivot column.  A nonzero
    row is scaled to u, 1 at its first nonzero column c, and X is
    multiplied on the right by I - e_c u.  That is what storing u as the
    row at pivot c, and clearing column c from the other rows, does to
    Q = I - P, where P holds each reduced constraint row at its pivot
    column; so it also keeps N = M Q for the map M from the parameters to
    the first column, and it reduces the rows still to be added against u.
    """
    w = X[:, j]
    nonzero = w != 0
    has = nonzero.any(axis=1)
    b = np.flatnonzero(has)
    if b.size:
        c = nonzero[b].argmax(axis=1)
        u = np.zeros_like(w)
        u[b] = w[b] * fp.inverse(w[b, c], p)[:, None] % p
        col = np.zeros(X.shape[:2], dtype=np.int64)
        col[b] = X[b, :, c]
        X -= col[:, :, None] * u[:, None, :]
        X %= p
    return has


def scan(A: np.ndarray, F: np.ndarray, v: np.ndarray, p: int, l_max):
    """The nullspace dimension and nontriviality of a stack of strip
    families from their blocks, A (B, n, n), F (B, n, f) and v (B, k, n),
    at lengths 2..l_max, and each member's Q: without free columns at its
    last nontrivial length (zero if it has none), with them at l_max.
    ``l_max`` is one horizon for all members or one per member (members
    with free columns share one).  The arrays are (B, L - 1) for the
    largest horizon L, zero and False past a member's own horizon.

    On a strip the pairs (x, y) are the adjacent columns (x_g, x_{g+1}), so
    x_g = A x_{g+1} + F z_g and v x_{g+1} = 0.  A length-l solution is
    fixed by its parameters (x_{l-1}, z_{l-2}, ..., z_0), and distinct
    parameters give distinct solutions, since z_g is part of x_g.  Let P
    hold the reduced row space of the constraints on the parameters, each
    row at its pivot column, and Q = I - P.  Then the nullspace dimension
    is the parameter count minus the rank, the columns of Q span the
    kernel, and N = M Q, for the map M from the parameters to x_0, gives
    the first column on the kernel.  The length is nontrivial when both
    end columns can be nonzero there: N is not zero, and neither are the
    first n rows of Q, which give x_{l-1}.  One length more puts the
    constraint ``v x_0 = 0`` on the old first column, so it adds the rows
    v N, reduced (``_add_row``), and then prepends the first column
    ``A x_0 + F z`` with the f entries of z as new parameters:
    Q <- blockdiag(Q, I_f) and N <- [A N | F].  Without free columns, once
    N is zero no longer strip adds a constraint or has a nonzero first
    column, so the member leaves the stack with its nullspace dimension
    fixed; that includes every member whose kernel is empty.  With free
    columns N is never zero, and the nontrivial lengths stop once the first
    n rows of Q vanish.  Either way the nontrivial lengths run from 2 up,
    so a member with free columns run to its last nontrivial length ends
    with its Q there.  A member also leaves the stack at its own horizon.
    """
    B, k, n = v.shape
    f = F.shape[2]
    horizon = np.asarray(l_max)
    lengths = horizon.ravel().tolist()
    L = max(lengths, default=2)
    stops = set(lengths) - {L}  # lengths where some members' horizons end
    size = n + f * (L - 1)  # parameters at length L
    dims = np.zeros((B, L - 1), dtype=np.int64)
    nontrivial = np.zeros((B, L - 1), dtype=bool)
    # per member: the next constraint rows, N and Q, on the parameters so
    # far, the first t columns and k + n + t rows
    X = np.zeros((B, k + n + size, size), dtype=np.int64)
    X[:, k:k + n, :n] = X[:, k + n:k + 2 * n, :n] = np.eye(n, dtype=np.int64)
    last_Q = np.zeros((B, n, n), dtype=np.int64)
    live, rank = np.arange(B), np.zeros(B, dtype=np.int64)
    for i in range(L - 1):  # length i + 2
        if not live.size:
            break
        t = n + f * i
        W = X[:, :k + n + t, :t]
        W[:, :k] = v @ W[:, k:k + n] % p  # the constraints v N, reduced
        for j in range(k):
            rank += _add_row(W, j, p)
        N = X[:, k:k + n]
        N[:, :, :t] = A @ N[:, :, :t] % p
        if f:
            N[:, :, t:t + f] = F
            X[:, k + n + t:k + n + t + f, t:t + f] = np.eye(f, dtype=np.int64)
            t += f
        hit = N.any(axis=(1, 2))
        # without free columns Q is nonzero when N = M Q is; with them N never
        # vanishes, but x_{l-1} (Q's first n rows) may
        ends = hit & X[:, k + n:k + 2 * n].any(axis=(1, 2)) if f else hit
        dims[live, i] = t - rank
        dims[live[~hit], i + 1:] = (t - rank[~hit])[:, None]
        nontrivial[live, i] = ends
        if not f:  # copying the growing Q at each length is a third of a scan
            last_Q[live[ends]] = X[ends, k + n:]
        keep = hit & (horizon[live] > i + 2) if i + 2 in stops else hit
        if not keep.all():
            live, A, F, v, X, rank = live[keep], A[keep], F[keep], v[keep], X[keep], rank[keep]
    if stops:
        dims[np.arange(2, L + 1) > horizon[:, None]] = 0
    return dims, nontrivial, X[:, k + n:] if f else last_Q


# ---------------------------------------------------------------------------
# Cyclic closures


def periodic_part(A: np.ndarray, F: np.ndarray, v: np.ndarray,
                  p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The recursion restricted to the states its periodic solutions visit.

    Along a cyclic chain the states satisfy y_{j+1} = A y_j + F z_j and
    v y_j = 0.  Every state of a periodic solution lies in V*, the largest
    subspace of ker v that A maps into V* + im F; V_{i+1} = ker v &
    A^-1(V_i + im F) shrinks from V_0 = ker v to V* within dim y steps.
    On the basis rows ``V`` of V*, a state is y = c V, and the solutions
    that stay in V* are c_{j+1} = c_j Ab + w_j Bb, with w_j free and the
    rows of Bb the coordinates of a basis of V* & im F.  F is injective,
    so z_j is fixed by (c_j, w_j) and back: periodic solutions of the two
    recursions correspond one to one.  Returns ``(Ab, Bb, V)``.
    """
    if not v.any():  # V* is everything: d3 and d5 at both levels on every torus tried
        return A.T, F.T, np.eye(len(A), dtype=np.int64)
    f = F.shape[1]
    V = fp.nullspace(v, p)
    while True:
        beyond = fp.nullspace(np.vstack([V, F.T]), p)  # annihilates V + im F
        shrunk = fp.nullspace(np.vstack([v, beyond @ A % p]), p)
        if len(shrunk) == len(V):
            break
        V = shrunk
    s = len(V)
    G = np.vstack([V, F.T])
    # A V^T = V^T Ab^T + F K^T: coordinates of each image on the rows of G
    Ab = transfer(np.hstack([G.T, (-A @ V.T) % p]), s + f, p)[0][:s].T
    pairs = fp.nullspace(G.T, p)  # alpha V + beta F^T = 0, so alpha V is in im F^T
    return Ab, pairs[:, :s], V


def _closure(Ab: np.ndarray, Bb: np.ndarray, power: np.ndarray, blocks: int,
             p: int) -> np.ndarray:
    """Rows [Ab^L - I; Bb Ab^(b-1); ...; Bb Ab; Bb] from ``power`` = Ab^L
    and b = ``blocks``.

    With b = L, (c_0, w_0, ..., w_{L-1}) is a period-L solution of
    ``periodic_part``'s recursion iff it lies in the left kernel, since
    c_L = c_0 Ab^L + sum_i w_i Bb Ab^(L-1-i).  The rows Bb Ab^k span their
    final space once k reaches dim c, so b = min(L, dim c) gives the same
    rank.  When Bb has no rows (d3, d3_B and d5 at both levels, on every
    torus tried) no Krylov block is built, and the rows are Ab^L - I alone.
    """
    krylov = [Bb]
    for _ in range(blocks - 1 if len(Bb) else 0):
        krylov.append(krylov[-1] @ Ab % p)
    eye = np.eye(len(power), dtype=np.int64)
    return np.vstack([(power - eye) % p, *krylov[:blocks][::-1]])


def periodic_dims(A: np.ndarray, F: np.ndarray, v: np.ndarray, lengths,
                  p: int) -> list[int]:
    """Dimension of the period-L solutions, one per L in ``lengths``, from
    one periodic part.  The lengths are closed in increasing order, so each
    Ab^L is the previous power times Ab to the gap."""
    Ab, Bb, _ = periodic_part(A, F, v, p)
    s = len(Ab)
    dims, power, done = {}, None, 0
    for L in sorted(set(lengths)):
        step = fp.mat_power(Ab, L - done, p)
        power, done = (step if power is None else power @ step % p), L
        dims[L] = s + L * len(Bb) - fp.mat_rank(_closure(Ab, Bb, power, min(L, s), p), p)
    return [dims[L] for L in lengths]


def periodic_states(A: np.ndarray, F: np.ndarray, v: np.ndarray, L: int,
                    p: int) -> np.ndarray:
    """A basis of the period-L solutions as their states y_0..y_{L-1}, one
    (L, n) sequence per basis element: (dim, L, n)."""
    Ab, Bb, V = periodic_part(A, F, v, p)
    kernel = fp.nullspace(_closure(Ab, Bb, fp.mat_power(Ab, L, p), L, p).T, p)
    return unroll(kernel, Ab, Bb, L - 1, p) @ V % p
