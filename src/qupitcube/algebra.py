"""Exact phase-tracking Pauli and projector algebra for odd prime p.

Monomials are kept in the sitewise normal order X^a Z^b with a phase
exponent c, representing omega^c * prod_site X^a Z^b.  Moving Z past X
on one site costs omega^-1, so the product rule is

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' - b . a'),

which reproduces the commutation law S_a S_b = S_b S_a omega^<a, b>.
Monomials and operator sums share this one rule.

An operator sum is a rational combination of phased monomials: integer
numerators keyed by (a, b, c) over one positive denominator, which
products multiply, so no step leaves the integers.  The only relation
among keys, 1 + omega + ... + omega^(p-1) = 0, is applied once, when
sums are compared.  The projector check forms each distinct phase-0
monomial product once (p^2 of them for the p^4 projector term pairs)
and decides all p^2 projector products from one integer count array
of (r, q, monomial, phase), with that relation applied by subtracting
the phase-(p-1) counts; no operator sum is multiplied there.  The
verifiers accept p <= MAX_ALGEBRA_MODULUS.

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
import operator
import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from .codes import (
    VERTICES,
    CodeParams,
    InvalidCenterError,
    Site,
    build_generator,
    doubled_center,
)
from .fp import check_prime


class NotOrderPError(ValueError):
    """Raised when a projector is requested for an operator with s^p != 1."""


# The projector checks count p^4 term pairs in one integer array: one
# `algebra` command takes 0.04 s in process (0.3 s in a fresh interpreter)
# at p = 31 and 0.06 s (0.35 s) at p = 37, peak RSS 35 and 37 MB
# (2-core x86_64 VM, Python 3.11, numpy 2.4).
MAX_ALGEBRA_MODULUS = 31

# The projector checks count (r, q, m, k) quadruples in blocks of rows r
# with about this many entries each: one row at p >= 23, all rows at p <= 11.
COUNT_BLOCK_ENTRIES = 1 << 14


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


def identity_pauli(p: int, sites) -> PhasedPauli:
    sites = tuple(sites)
    return PhasedPauli(p, sites, (0,) * len(sites), (0,) * len(sites))


def _monomial_mul(u: tuple, v: tuple, p: int) -> tuple:
    """The product rule on phase-0 (x, z) monomials: (x + x', z + z', -z . x')."""
    (xu, zu), (xv, zv) = u, v
    return (tuple([(a + b) % p for a, b in zip(xu, xv)]),
            tuple([(a + b) % p for a, b in zip(zu, zv)]),
            -sum(map(operator.mul, zu, xv)) % p)


class _Products(dict):
    """``_monomial_mul`` of each ((x, z), (x', z')) pair looked up, formed once."""

    def __init__(self, p: int):
        self.p = p

    def __missing__(self, uv: tuple) -> tuple:
        out = self[uv] = _monomial_mul(*uv, self.p)
        return out


def _key_mul(u: tuple, v: tuple, products: _Products) -> tuple:
    """Normal-ordered product of (x, z, phase) keys."""
    x, z, c = products[u[:2], v[:2]]
    return (x, z, (u[2] + v[2] + c) % products.p)


def _symplectic(u: tuple, v: tuple, p: int) -> int:
    """e with u v = v u omega^e for (x, z, ...) keys."""
    return sum(xu * zv - zu * xv for xu, zu, xv, zv in zip(u[0], u[1], v[0], v[1])) % p


def generator_pauli(params: CodeParams) -> PhasedPauli:
    """The origin cube generator on its eight ``VERTICES`` sites, Weyl-symmetric.

    The phase is -2^-1 * sum_i x_i z_i: with Z X = omega^-1 X Z, that is
    the monomial whose label-negated copy is its inverse.
    """
    labels = build_generator(params)
    x, z = zip(*(labels[v] for v in VERTICES))
    xz = sum(a * b for a, b in zip(x, z))
    return PhasedPauli(params.p, VERTICES, x, z, -xz * pow(2, -1, params.p))


# ---------------------------------------------------------------------------
# Operator sums


class OperatorSum:
    """Finite rational combination of phased monomials.

    ``terms`` maps (x, z, phase) keys, standing for omega^phase X^x Z^z,
    to nonzero integer numerators over the positive integer ``den``.
    Keys that differ only in phase are dependent, so equality compares
    ``canonical()`` forms.
    """

    __slots__ = ("p", "sites", "den", "terms")

    def __init__(self, p: int, sites):
        self.p = _check_odd_prime(p)
        self.sites = tuple(sites)
        self.den = 1
        self.terms: dict = {}

    def _accumulate(self, key, n: int) -> None:
        new = self.terms.get(key, 0) + n
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def canonical(self) -> tuple[int, dict]:
        """The unique form (d, {(x, z): numerators}) of Q(omega) coefficients.

        Each tuple holds numerators over d on the basis omega^0..omega^(p-2):
        the phase-(p-1) one is subtracted from the others, which is
        1 + omega + ... + omega^(p-1) = 0.  Zero tuples are dropped and d
        shares no factor with all numerators, so zero alone is (1, {}).
        """
        p = self.p
        gathered: dict = {}
        for (x, z, phase), n in self.terms.items():
            gathered.setdefault((x, z), [0] * p)[phase] += n
        out = {}
        for mono, vec in gathered.items():
            last = vec[p - 1]
            if any(n != last for n in vec[:p - 1]):
                out[mono] = [n - last for n in vec[:p - 1]]
        g = gcd(self.den, *(n for vec in out.values() for n in vec))
        return self.den // g, {mono: tuple(n // g for n in vec) for mono, vec in out.items()}

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorSum) and self.p == other.p
                and self.sites == other.sites
                and self.canonical() == other.canonical())

    def __repr__(self) -> str:
        return f"OperatorSum(p={self.p}, terms={len(self.terms)})"


def _powers(s: PhasedPauli, products: _Products) -> list[tuple]:
    """The keys of s^0 .. s^(p-1); requires s^p = identity exactly."""
    one = identity_pauli(s.p, s.sites).key()
    powers = [one]
    for _ in range(s.p):
        powers.append(_key_mul(powers[-1], s.key(), products))
    if powers.pop() != one:
        raise NotOrderPError("operator does not have order p (including phase)")
    return powers


def _projector(s: PhasedPauli, r: int, products: _Products) -> OperatorSum:
    p = s.p
    out = OperatorSum(p, s.sites)
    out.den = p
    for m, (x, z, c) in enumerate(_powers(s, products)):
        out._accumulate((x, z, (c + r * m) % p), 1)
    return out


def inversion_conjugate(P: OperatorSum, center) -> OperatorSum:
    """Conjugate by the inversion permutation about a (half-)lattice centre.

    Site permutations carry no phase: each term's exponent vectors are
    re-indexed; phases, numerators and ``den`` are kept.  Inversion is an
    involution, so the site landing at position i comes from ``perm[i]``.
    Raises InvalidCenterError unless the centre maps P's sites onto
    themselves.
    """
    c2 = doubled_center(center)
    idx = {q: i for i, q in enumerate(P.sites)}
    perm = [idx.get(tuple(c2[a] - q[a] for a in range(3))) for q in P.sites]
    if None in perm:
        raise InvalidCenterError(f"inversion about {tuple(center)} does not map "
                                 f"the operator's sites onto themselves")
    out = OperatorSum(P.p, P.sites)
    out.den = P.den
    for (x, z, phase), n in P.terms.items():
        out._accumulate((tuple(x[i] for i in perm), tuple(z[i] for i in perm), phase), n)
    return out


# ---------------------------------------------------------------------------
# Identity verifiers used by the CLI and the acceptance suite


@functools.cache
def verify_commutation_law(p: int, trials: int = 200, seed: int = 7) -> bool:
    """u v = v u omega^<u, v> on random two-site (x, z, phase) keys.

    The verdict depends only on the arguments, so each process computes
    it once per argument list; ``cache_clear()`` forgets the verdicts.
    """
    p = _check_odd_prime(p, MAX_ALGEBRA_MODULUS)
    products = _Products(p)
    rng = random.Random(seed)

    def draw() -> tuple:
        return ((rng.randrange(p), rng.randrange(p)),
                (rng.randrange(p), rng.randrange(p)), rng.randrange(p))

    for _ in range(trials):
        u, v = draw(), draw()
        x, z, c = _key_mul(v, u, products)
        if _key_mul(u, v, products) != (x, z, (c + _symplectic(u, v, p)) % p):
            return False
    return True


def verify_projector_identities(params: CodeParams) -> dict:
    """Idempotence, orthogonality, completeness of {P(s, r)} for the
    cube generator.

    With G_m the key of s^m, P(s, r) P(s, q) is p^-2 sum_{m, k} of
    omega^(r m + q k) G_m G_k.  Each product G_m G_k is formed once, as
    monomial t[m, k] with phase c[m, k]; the numerators of all p^2
    products are then one integer count of (r, q, t, phase), and each
    verdict is a ``canonical()`` equality with the denominators p^2 and p
    cross-multiplied.
    """
    p = _check_odd_prime(params.p, MAX_ALGEBRA_MODULUS)
    products = _Products(p)
    s = generator_pauli(params)
    powers = _powers(s, products)
    index = {identity_pauli(p, s.sites).key()[:2]: 0}  # (x, z) -> monomial number t
    t, c = [], []
    for u in powers:
        for v in powers:
            x, z, phase = products[u[:2], v[:2]]
            t.append(index.setdefault((x, z), len(index)))
            c.append(u[2] + v[2] + phase)
    n_mono = len(index)

    def reduced(counts: np.ndarray) -> np.ndarray:
        # numerators on omega^0..omega^(p-2): 1 + omega + ... + omega^(p-1) = 0
        return counts[..., :p - 1] - counts[..., p - 1:]

    # P(s, r) has numerator 1 on (G_m's monomial, G_m's phase + r m), over p
    labels = np.arange(p)
    rm = labels[:, None] * labels  # r m, and likewise q k
    own = [index[u[:2]] for u in powers]
    proj = np.zeros((p, n_mono, p), dtype=np.int64)
    np.add.at(proj, (labels[:, None], own, ([u[2] for u in powers] + rm) % p), 1)
    red_proj = reduced(proj)
    # for each (q, m, k): the (q, t) cell, and the phase without its r m part
    cell = (labels[:, None, None] * n_mono + np.reshape(t, (p, p))) * p
    qk = rm[:, None, :] + np.reshape(c, (p, p))
    # differs[r, q]: P(s, r) P(s, q) is not delta_rq P(s, r).  Rows r are
    # counted a block at a time, about COUNT_BLOCK_ENTRIES (r, q, m, k) each
    size = p * n_mono * p
    differs = np.empty((p, p), dtype=bool)
    block = max(1, COUNT_BLOCK_ENTRIES // p ** 3)
    for r0 in range(0, p, block):
        rs = labels[r0:r0 + block]
        flat = cell + (qk + rm[rs, None, :, None]) % p + (rs - r0)[:, None, None, None] * size
        red = reduced(np.bincount(flat.ravel(), minlength=len(rs) * size)
                      .reshape(len(rs), p, n_mono, p))
        red[rs - r0, rs] -= p * red_proj[rs]
        differs[rs] = red.reshape(len(rs), p, -1).any(axis=2)
    identity = np.zeros((n_mono, p - 1), dtype=np.int64)
    identity[0, 0] = 1
    return {"idempotent": not differs.diagonal().any(),
            "orthogonal": not (differs & ~np.eye(p, dtype=bool)).any(),
            "complete": np.array_equal(red_proj.sum(axis=0), p * identity)}


def verify_inversion_action(params: CodeParams, r: int = 1) -> dict:
    """Conjugating P(s, r) by inversion about the cube centre.

    Expected fixed for symmetric codes and mapped to P(s, -r) for
    antisymmetric ones.  The syndrome label r must lie in 0..p-1.
    """
    p = _check_odd_prime(params.p, MAX_ALGEBRA_MODULUS)
    if not 0 <= r < p:
        raise ValueError(f"syndrome label r must be in 0..{p - 1}, got {r}")
    products = _Products(p)
    s = generator_pauli(params)
    P = _projector(s, r, products)
    conj = inversion_conjugate(P, (0.5, 0.5, 0.5))
    expect_r = r if params.parity == "S" else (-r) % p
    expected = _projector(s, expect_r, products)
    return {"r": r, "expected_r": expect_r, "matches": conj == expected}
