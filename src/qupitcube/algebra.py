"""Exact phase-tracking Pauli and projector algebra for odd prime p.

Monomials are kept in the sitewise normal order X^a Z^b with a phase
exponent c, representing omega^c * prod_site X^a Z^b.  Moving Z past X
on one site costs omega^-1, so the product rule is

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' - b . a'),

which reproduces the commutation law S_a S_b = S_b S_a omega^<a, b>.
``_monomial_mul`` is that rule on integer arrays whose last axis runs
over sites, so one call multiplies whole tables of monomials; the
verifiers here and the operator sums of ``reference`` all call it.

The projector and inversion checks multiply no operator sum; the sums
are ``reference``'s oracles.  A ``PowerTable`` holds the generator's
powers s^0 .. s^(p-1) as (p, sites) x and z exponent arrays and a phase
vector, and one array call of the rule forms all p^2 products s^m s^k
(the p^4 projector term pairs have no others).  All p^2 projector
products are decided from one integer count array of (r, q, monomial,
phase), with 1 + omega + ... + omega^(p-1) = 0 applied by subtracting
the phase-(p-1) counts, and the inversion action from the counts of the
site-permuted powers.  The verifiers accept p <= MAX_ALGEBRA_MODULUS.

The identities are checked on the origin cube generator, on its eight
``VERTICES`` sites: every operator involved is the identity elsewhere,
so no torus (all sides >= 2) can change a verdict.  The generator
carries the Weyl-symmetric phase omega^(-2^-1 x.z) in front of X^x Z^z
(Appleby, quant-ph/0412001).  Negating every label then gives exactly
the inverse, so inversion maps P(s, r) to P(s, -r) for antisymmetric
codes at every odd p.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .codes import (
    VERTICES,
    CodeParams,
    InvalidCenterError,
    Site,
    build_generator,
    doubled_center,
    is_integer,
)
from .fp import check_prime


class NotOrderPError(ValueError):
    """Raised when a projector is requested for an operator with s^p != 1."""


# The projector checks count p^4 term pairs in one integer array: one
# `algebra` command takes 0.011-0.015 s in process (0.13-0.15 s in a fresh
# interpreter) at p = 31 and 0.020-0.023 s (0.15-0.16 s) at p = 37, peak
# RSS 32 and 34 MB (2-core x86_64 VM, Python 3.11, numpy 2.4).
MAX_ALGEBRA_MODULUS = 31

# The projector checks count (r, q, m, k) quadruples in blocks of rows r
# with about this many entries each: one row at p >= 23, all rows at p <= 11.
COUNT_BLOCK_ENTRIES = 1 << 14

# The cube generator's sites map onto themselves under inversion about it.
CUBE_CENTER = (0.5, 0.5, 0.5)


def _check_odd_prime(p: int, limit: int | None = None) -> int:
    p = check_prime(p)
    if p == 2:
        raise ValueError("phase algebra requires an odd prime modulus")
    if limit is not None and p > limit:
        raise ValueError(f"algebra checks are limited to p <= {limit}, got p = {p}")
    return p


# ---------------------------------------------------------------------------
# Phased Pauli monomials


@dataclass(frozen=True)
class PhasedPauli:
    """omega^phase * prod_site X^x Z^z on a fixed, sorted site tuple."""

    p: int
    sites: tuple[Site, ...]
    x: tuple[int, ...]
    z: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        p = _check_odd_prime(self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "x", tuple(v % p for v in self.x))
        object.__setattr__(self, "z", tuple(v % p for v in self.z))
        object.__setattr__(self, "phase", self.phase % p)
        if not (len(self.sites) == len(self.x) == len(self.z)):
            raise ValueError("sites, x, z must have equal length")

    def key(self) -> tuple:
        return (self.x, self.z, self.phase)

    def is_identity(self) -> bool:
        return self.phase == 0 and not any(self.x) and not any(self.z)


def _monomial_mul(u: tuple, v: tuple, p: int) -> tuple:
    """The product rule on phase-0 (x, z) monomials: (x + x', z + z', -z . x').

    x and z are integer arrays whose last axis runs over sites; the
    leading axes broadcast, so one call multiplies tables of monomials.
    """
    (xu, zu), (xv, zv) = u, v
    return (xu + xv) % p, (zu + zv) % p, -(zu * xv).sum(-1) % p


def _powers(s: PhasedPauli) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x and z exponents (p, sites) and phases (p,) of s^0 .. s^(p-1).

    One call of the product rule multiplies every row m = (m x, m z) by
    s.  The products must land on the rows m + 1, row p being 0, and
    their phases, summed from s^0 = 1, give each row's phase and that of
    s^p, which must be 0: that is s^p = identity exactly.
    """
    p = s.p
    sx, sz = np.array(s.x, dtype=np.int64), np.array(s.z, dtype=np.int64)
    m = np.arange(p + 1)[:, None]
    x, z = m * sx % p, m * sz % p
    nx, nz, c = _monomial_mul((x[:-1], z[:-1]), (sx, sz), p)
    phases = np.zeros(p + 1, dtype=np.int64)
    phases[1:] = s.phase + c
    phases = phases.cumsum() % p
    if phases[p] or (nx != x[1:]).any() or (nz != z[1:]).any():
        raise NotOrderPError("operator does not have order p (including phase)")
    return x[:-1], z[:-1], phases[:-1]


def generator_pauli(params: CodeParams) -> PhasedPauli:
    """The origin cube generator on its eight ``VERTICES`` sites, Weyl-symmetric.

    The phase is -2^-1 * sum_i x_i z_i: with Z X = omega^-1 X Z, that is
    the monomial whose label-negated copy is its inverse.
    """
    labels = build_generator(params)
    x, z = zip(*(labels[v] for v in VERTICES))
    xz = sum(a * b for a, b in zip(x, z))
    return PhasedPauli(params.p, VERTICES, x, z, -xz * pow(2, -1, params.p))


def _inversion_perm(sites: tuple, center) -> list[int]:
    """Inversion about a (half-)lattice centre as a permutation of ``sites``.

    Inversion is an involution, so the site landing at position i comes
    from ``perm[i]``.  Raises InvalidCenterError unless the centre maps
    the sites onto themselves.
    """
    c2 = doubled_center(center)
    idx = {q: i for i, q in enumerate(sites)}
    perm = [idx.get(tuple(c2[a] - q[a] for a in range(3))) for q in sites]
    if None in perm:
        raise InvalidCenterError(f"inversion about {tuple(center)} does not map "
                                 f"the operator's sites onto themselves")
    return perm


# Inversion about the cube centre as a permutation of the generator's sites
_CUBE_INVERSION = _inversion_perm(VERTICES, CUBE_CENTER)


# ---------------------------------------------------------------------------
# Identity verifiers used by the CLI and the acceptance suite


@functools.lru_cache(maxsize=None, typed=True)
def verify_commutation_law(p: int, trials: int = 200, seed: int = 7) -> bool:
    """u v = v u omega^<u, v> on random two-site (x, z, phase) keys.

    Every trial's u v and v u come from one array call of the product
    rule.  The verdict depends only on the arguments, so each process
    computes it once per argument list and types (``trials=True`` is not
    ``trials=1``); ``cache_clear()`` forgets the verdicts.  Refuses trials
    that are not integers >= 1; 0 would pass without a product.
    """
    p = _check_odd_prime(p, MAX_ALGEBRA_MODULUS)
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"the commutation law needs integer trials >= 1, got {trials!r}")
    rng = random.Random(seed)
    # per trial u then v, each drawn as x0, x1, z0, z1, phase
    u, v = np.array([rng.randrange(p) for _ in range(10 * trials)],
                    dtype=np.int64).reshape(trials, 2, 5).swapaxes(0, 1)
    left, right = np.stack([u, v]), np.stack([v, u])  # u v, then v u
    x, z, c = _monomial_mul((left[..., :2], left[..., 2:4]),
                            (right[..., :2], right[..., 2:4]), p)
    phase = (left[..., 4] + right[..., 4] + c) % p
    e = (u[:, :2] * v[:, 2:4] - u[:, 2:4] * v[:, :2]).sum(-1)
    return bool((x[0] == x[1]).all() and (z[0] == z[1]).all()
                and (phase[0] == (phase[1] + e) % p).all())


def _reduced(counts: np.ndarray) -> np.ndarray:
    """Numerators on omega^0..omega^(p-2): 1 + omega + ... + omega^(p-1) = 0."""
    return counts[..., :-1] - counts[..., -1:]


class PowerTable:
    """The cube generator's power table and the projector counts it gives.

    With G_m = s^m, the table holds each G_m's monomial number ``ids[m]``
    and phase ``phases[m]``, each product G_m G_k's number
    ``product_ids[m, k]`` and phase ``product_phases[m, k]``, and the
    number ``inverted_ids[m]`` of G_m conjugated by inversion about the
    cube centre.  Equal (x, z) rows share a number, ``identity`` is the
    identity's, and a row in no other place gets a number of its own.
    ``reduced_projectors[r]`` holds P(s, r)'s numerators over p by
    (monomial, phase), reduced.  One ``algebra`` command builds one table
    for both of its code checks.
    """

    def __init__(self, params: CodeParams):
        p = self.p = _check_odd_prime(params.p, MAX_ALGEBRA_MODULUS)
        self.parity = params.parity
        s = generator_pauli(params)
        x, z, self.phases = _powers(s)
        px, pz, pc = _monomial_mul((x[:, None], z[:, None]), (x, z), p)
        self.product_phases = self.phases[:, None] + self.phases + pc
        xz = np.stack([x, z], axis=1)
        rows = np.concatenate([np.zeros_like(xz[:1]), xz,
                               np.stack([px, pz], axis=2).reshape(p * p, 2, -1),
                               xz[..., _CUBE_INVERSION]]).reshape(2 * p + p * p + 1, -1)
        # entries are reduced mod p, so equal (x, z) rows have equal bytes
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, number = np.unique(keys, return_inverse=True)
        self.n_mono = int(number.max()) + 1
        self.identity = number[0]
        self.ids = number[1:p + 1]
        self.product_ids = number[p + 1:p + 1 + p * p].reshape(p, p)
        self.inverted_ids = number[p + 1 + p * p:]
        self.rm = np.arange(p)[:, None] * np.arange(p)  # r m, and likewise q k
        self.reduced_projectors = self._reduced_counts(self.ids, self.rm)

    def _reduced_counts(self, ids: np.ndarray, rm: np.ndarray) -> np.ndarray:
        """Per row r of ``rm``, the reduced numerators over p of the sum of
        omega^(G_m's phase + rm[r, m]) on monomials ``ids[m]``: with the
        table's ``ids`` and rm[r, m] = r m, that is P(s, r)."""
        n, p = self.n_mono, self.p
        flat = (np.arange(len(rm))[:, None] * n + ids) * p + (self.phases + rm) % p
        return _reduced(np.bincount(flat.ravel(), minlength=len(rm) * n * p)
                        .reshape(len(rm), n, p))

    def projector_identities(self) -> dict:
        """Idempotence, orthogonality, completeness of {P(s, r)}.

        P(s, r) P(s, q) is p^-2 sum_{m, k} of omega^(r m + q k) G_m G_k,
        so the numerators of all p^2 products are one integer count of
        (r, q, product monomial, phase), and each verdict is a
        ``canonical()`` equality with the denominators p^2 and p
        cross-multiplied.
        """
        p, n_mono, rm = self.p, self.n_mono, self.rm
        labels = np.arange(p)
        red_proj = self.reduced_projectors
        # for each (q, m, k): the (q, t) cell, and the phase without its r m part
        cell = (labels[:, None, None] * n_mono + self.product_ids) * p
        qk = rm[:, None, :] + self.product_phases
        # differs[r, q]: P(s, r) P(s, q) is not delta_rq P(s, r).  Rows r are
        # counted a block at a time, about COUNT_BLOCK_ENTRIES (r, q, m, k) each
        size = p * n_mono * p
        differs = np.empty((p, p), dtype=bool)
        block = max(1, COUNT_BLOCK_ENTRIES // p ** 3)
        for r0 in range(0, p, block):
            rs = labels[r0:r0 + block]
            flat = cell + (qk + rm[rs, None, :, None]) % p + (rs - r0)[:, None, None, None] * size
            red = _reduced(np.bincount(flat.ravel(), minlength=len(rs) * size)
                           .reshape(len(rs), p, n_mono, p))
            red[rs - r0, rs] -= p * red_proj[rs]
            differs[rs] = red.reshape(len(rs), p, -1).any(axis=2)
        identity = np.zeros((n_mono, p - 1), dtype=np.int64)
        identity[self.identity, 0] = 1
        return {"idempotent": not differs.diagonal().any(),
                "orthogonal": not (differs & ~np.eye(p, dtype=bool)).any(),
                "complete": np.array_equal(red_proj.sum(axis=0), p * identity)}

    def inversion_action(self, r: int = 1) -> dict:
        """Conjugating P(s, r) by inversion about the cube centre.

        Expected fixed for symmetric codes and mapped to P(s, -r) for
        antisymmetric ones.  The conjugate keeps P(s, r)'s phases on the
        inverted monomials, so its reduced counts are compared with those
        of P(s, +-r).  The syndrome label r must be an integer in 0..p-1,
        not a bool.
        """
        p = self.p
        if not is_integer(r):
            raise ValueError(f"syndrome label r must be an integer, got {r!r}")
        if not 0 <= r < p:
            raise ValueError(f"syndrome label r must be in 0..{p - 1}, got {r}")
        expect_r = r if self.parity == "S" else (-r) % p
        conj = self._reduced_counts(self.inverted_ids, self.rm[r:r + 1])
        return {"r": r, "expected_r": expect_r,
                "matches": np.array_equal(conj[0], self.reduced_projectors[expect_r])}
