"""Planar logical operators and encoded-qudit counting on tori.

A torus L_x x L_y x L_z carries one qupit per site and one cube
generator per site, so the stabilizer group has at most n = L_x L_y L_z
independent generators acting on n qupits; the encoded qudit count is
k = n - rank of the generator family over F_p.  That k is the dimension
of the relations among the generators, counted by a transfer sweep
across layers of the torus, so no n x 2n matrix is built.

Noncontractible plane operators are built from a 2x2 tile that matches
the generator's face across the plane: the tile entry at in-plane parity
(a, b) is the generator label on the face vertex with those offsets, and
the label diagonal to alpha inherits the inversion sign of the code.
The four unit translates of the tile are the base patterns; products of
translate pairs stay periodic across one odd direction, and the product
of all four is uniform, giving the 4 / 2 / 1 census by the parities of
the two in-plane dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import fp
from .codes import (
    NEIGHBOR_OFFSETS,
    CodeParams,
    PauliConfig,
    Site,
    add_pairs,
    build_generator,
    check_dims,
    commutation_exponent,
    generator_config,
    generator_rows,
)

# Largest torus.  k comes from a sweep along the longest side, whose
# eliminations act on one cross-section: at 16^3 that is 16 x 16 cubes
# and matrices of at most 256 x 1024 entries, once per layer.
MAX_TORUS_SITES = 16 ** 3


class InvalidCodeError(ValueError):
    """Raised when a generator family on a torus is not abelian."""


class TorusCode:
    """A code instantiated on a periodic L_x x L_y x L_z lattice.

    Nothing here builds the n x 2n generator matrix: every quantity comes
    from the origin generator and translation invariance.
    """

    def __init__(self, params: CodeParams, dims):
        self.params = params
        self.dims = check_dims(dims)
        self.n = self.dims[0] * self.dims[1] * self.dims[2]
        if self.n > MAX_TORUS_SITES:
            raise ValueError(f"torus {self.dims} has {self.n} sites; tori are "
                             f"limited to {MAX_TORUS_SITES}")
        self._rank = None
        self._abelian = None

    def check_abelian(self) -> bool:
        """All cube generators pairwise commute on the torus.

        By translation invariance it suffices that the origin generator
        commutes with its translates by the 26 neighbour offsets, folded
        modulo the torus sides; generators further apart share no site.
        """
        if self._abelian is None:
            g = generator_config(self.params, dims=self.dims)
            offsets = {tuple(o % L for o, L in zip(off, self.dims))
                       for off in NEIGHBOR_OFFSETS}
            self._abelian = all(commutation_exponent(g, g.shift(o)) == 0
                                for o in sorted(offsets))
        return self._abelian

    @property
    def rank(self) -> int:
        """Rank of the n cube generators over F_p, as n - k."""
        if self._rank is None:
            self._rank = self.n - _left_kernel_dim(self.params, self.dims)
        return self._rank


def _left_kernel_dim(params: CodeParams, dims: Site) -> int:
    """Dimension of the space of cube coefficients whose product is identity.

    Sweep along the longest side L, with m cubes per layer.  Layer-0 cubes
    act on site layer 0 through B0 and on site layer 1 through B1, so
    coefficients lambda_0..lambda_{L-1} (one vector per layer) multiply to
    the identity iff every cyclically consecutive pair (a, b) lies in
    W = {(a, b) : a B1 + b B0 = 0}.  W is composed with itself L - 1
    times: Q is the relation between the first and last layer, and h the
    dimension of the sequences with both ends zero.  Closing the cycle
    adds the dimension of Q on the diagonal.
    """
    p = params.p
    a = max(range(3), key=lambda i: dims[i])
    u, v = [i for i in range(3) if i != a]
    m = dims[u] * dims[v]

    def index(site):
        return site[a] * m + (site[u] % dims[u]) * dims[v] + site[v] % dims[v]

    cubes = []
    for cu, cv in product(range(dims[u]), range(dims[v])):
        c = [0, 0, 0]
        c[u], c[v] = cu, cv
        cubes.append(tuple(c))
    B = generator_rows(params, cubes, index, 2 * m)
    B0, B1 = B[:, :2 * m], B[:, 2 * m:]
    W = fp.nullspace(np.vstack([B1, B0]).T, p)
    Wa, Wb = W[:, :m], W[:, m:]
    Q, h = W, 0
    for _ in range(dims[a] - 1):
        q = len(Q)
        # (alpha, beta) with alpha Q_last = beta W_first
        N = fp.nullspace(np.vstack([Q[:, m:], (-Wa) % p]).T, p)
        image = np.hstack([N[:, :q] @ Q[:, :m], N[:, q:] @ Wb]) % p
        R, pivots = fp.mat_rref(image, p)
        Q = R[:len(pivots)]
        h += len(N) - len(pivots)
    return h + len(Q) - fp.mat_rank(Q[:, :m] - Q[:, m:], p)


def is_logical(config: PauliConfig, torus: TorusCode) -> bool:
    """True when the configuration commutes with every cube generator.

    The syndrome at cube c sums, over the cube's vertices u, the
    symplectic product of the label at u with the config at c + u, so it
    is a sum of the config array rolled by -u.
    """
    p, dims = torus.params.p, torus.dims
    C = np.zeros((*dims, 2), dtype=np.int64)
    for site, pair in config.support.items():
        C[tuple(c % L for c, L in zip(site, dims))] = pair
    e = np.zeros(dims, dtype=np.int64)
    for u, (lx, lz) in build_generator(torus.params).items():
        shifted = np.roll(C, tuple(-c for c in u), axis=(0, 1, 2))
        e += lx * shifted[..., 1] - lz * shifted[..., 0]
    return not (e % p).any()


@dataclass(frozen=True)
class PlanarPattern:
    """A tiled plane through the origin: normal axis, tile translation, transpose."""

    normal_axis: int
    translation: tuple[int, int] = (0, 0)
    transpose: bool = False

    @property
    def plane_axes(self) -> tuple[int, int]:
        u, v = [a for a in range(3) if a != self.normal_axis]
        return (u, v)


def face_tile(params: CodeParams, normal_axis: int) -> dict[tuple[int, int], tuple]:
    """Tile entries from the zero-side face of the cube generator.

    Keyed by in-plane vertex offsets; the entry diagonal to alpha carries
    the code's inversion sign, which is what makes the tiling commute
    with every generator on a seamless torus.
    """
    labels = build_generator(params)
    u, v = [a for a in range(3) if a != normal_axis]
    tile = {}
    for vert, g in labels.items():
        if vert[normal_axis] == 0:
            tile[(vert[u], vert[v])] = g
    return tile


def build_planar_operator(params: CodeParams, pattern: PlanarPattern, dims) -> tuple[PauliConfig, bool]:
    """Tile a plane of the torus with the pattern.

    Labels are assigned by absolute coordinate parity, so on a plane with
    an odd dimension the wrap breaks the periodicity; the returned flag
    reports such a seam (the configuration itself is still well formed).
    """
    dims = check_dims(dims)
    u, v = pattern.plane_axes
    tile = face_tile(params, pattern.normal_axis)
    cfg = PauliConfig(params.p, dims)
    ta, tb = pattern.translation
    for cu in range(dims[u]):
        for cv in range(dims[v]):
            a, b = (cu + ta) % 2, (cv + tb) % 2
            if pattern.transpose:
                a, b = b, a
            site = [0, 0, 0]
            site[u] = cu
            site[v] = cv
            cfg.add(tuple(site), tile[(a, b)])
    seam = dims[u] % 2 == 1 or dims[v] % 2 == 1
    return cfg, seam


def _census_tier(torus: TorusCode, normal: int) -> tuple[dict, list[PauliConfig]]:
    """The first tier with a logical, nonempty configuration, and its operators.

    Tier order: the four translated tilings, then the paper pairing of
    translate products (periodic across one direction), then the product
    of all four (uniform).  The plain tile alignment is tried before the
    transposed one.
    """
    for transpose in (False, True):
        built = [build_planar_operator(torus.params, PlanarPattern(normal, t, transpose),
                                       torus.dims)[0]
                 for t in ((0, 0), (1, 0), (0, 1), (1, 1))]
        pairs = [built[0].mul(built[1]), built[2].mul(built[3]),
                 built[0].mul(built[2]), built[1].mul(built[3])]
        for tier, configs in (("base", built), ("pair-products", pairs),
                              ("full-product", [pairs[0].mul(pairs[1])])):
            ok = [cfg for cfg in configs if not cfg.is_identity() and is_logical(cfg, torus)]
            if ok:
                return {"count": len(ok), "tier": tier, "transpose": transpose}, ok
    return {"count": 0, "tier": None, "transpose": None}, []


def plane_census(torus: TorusCode) -> dict[str, tuple[dict, list[PauliConfig]]]:
    """Each orientation's census entry and the logical operators it counts,
    from one tier search per normal axis.

    The first tier containing a logical, nonempty configuration supplies
    the count: 4 when both in-plane dimensions are even, 2 when one is,
    1 when none are.
    """
    out = {}
    for normal in range(3):
        entry, ops = _census_tier(torus, normal)
        u, v = [a for a in range(3) if a != normal]
        entry["in_plane_dims"] = (torus.dims[u], torus.dims[v])
        out[f"normal_{'xyz'[normal]}"] = (entry, ops)
    return out


def planar_census(torus: TorusCode) -> dict:
    """Count valid plane-operator constructions for each orientation."""
    return {name: entry for name, (entry, _) in plane_census(torus).items()}


def census_operators(torus: TorusCode, normal: int) -> list[PauliConfig]:
    """The logical plane operators the census counts for one orientation."""
    return _census_tier(torus, normal)[1]


def product_of_all_generators(torus: TorusCode) -> PauliConfig:
    """Sitewise product over every cube generator on the torus.

    Each site collects (1 + s) times the sum of the four pairs: the zero
    configuration for antisymmetric codes (the global relation behind
    their guaranteed encoded qudit), a uniform configuration otherwise.
    """
    p = torus.params.p
    total = (0, 0)
    for pair in build_generator(torus.params).values():
        total = add_pairs(total, pair, p)
    out = PauliConfig(p, torus.dims)
    for site in product(*map(range, torus.dims)):
        out.add(site, total)
    return out


def encoded_qudit_count(torus: TorusCode) -> int:
    """k = n - rank of the generator family over F_p.

    Raises InvalidCodeError for a non-commuting generator family (the
    quantity is undefined there).
    """
    if not torus.check_abelian():
        raise InvalidCodeError("generator family is not abelian on this torus")
    return torus.n - torus.rank


def encoded_qudit_table(params: CodeParams, sizes=range(2, 5)) -> dict[Site, int]:
    """k over a cube of torus sizes; exposes the size dependence of k.

    Every torus is checked against the size limit before any k is computed.
    """
    tori = [TorusCode(params, dims) for dims in product(sizes, repeat=3)]
    return {torus.dims: encoded_qudit_count(torus) for torus in tori}


def logical_commutation_table(configs: list[PauliConfig]) -> np.ndarray:
    """Pairwise commutation exponents; antisymmetric with zero diagonal."""
    n = len(configs)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            out[i, j] = commutation_exponent(configs[i], configs[j])
    return out
