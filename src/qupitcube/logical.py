"""Planar logical operators and encoded-qudit counting on tori.

A torus L_x x L_y x L_z carries one qupit per site and one cube
generator per site, so the stabilizer group has at most n = L_x L_y L_z
independent generators acting on n qupits; the encoded qudit count is
k = n - rank of the generator matrix over F_p.

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
    CodeParams,
    PauliConfig,
    Site,
    build_generator,
    check_dims,
    commutation_exponent,
    config_row,
    generator_rows,
)

# Largest dense torus: its n x 2n int64 generator matrix takes 256 MiB.
MAX_TORUS_SITES = 16 ** 3


class InvalidCodeError(ValueError):
    """Raised when a generator family on a torus is not abelian."""


class TorusCode:
    """A code instantiated on a periodic L_x x L_y x L_z lattice."""

    def __init__(self, params: CodeParams, dims):
        self.params = params
        self.dims = check_dims(dims)
        self.n = self.dims[0] * self.dims[1] * self.dims[2]
        if self.n > MAX_TORUS_SITES:
            raise ValueError(f"torus {self.dims} has {self.n} sites; the dense "
                             f"generator matrix is limited to {MAX_TORUS_SITES}")
        self._matrix = None
        self._rank = None
        self._abelian = None

    def site_index(self, site: Site) -> int:
        x, y, z = (c % L for c, L in zip(site, self.dims))
        return (x * self.dims[1] + y) * self.dims[2] + z

    def cube_positions(self) -> list[Site]:
        return [c for c in product(range(self.dims[0]), range(self.dims[1]),
                                   range(self.dims[2]))]

    @property
    def generator_matrix(self) -> np.ndarray:
        """One row per cube over 2n columns (x-exponent, z-exponent per site)."""
        if self._matrix is None:
            self._matrix = generator_rows(self.params, self.cube_positions(),
                                          self.site_index, self.n)
        return self._matrix

    def check_abelian(self) -> bool:
        """All generator rows pairwise symplectically orthogonal."""
        if self._abelian is None:
            M = self.generator_matrix
            X = M[:, 0::2]
            Z = M[:, 1::2]
            self._abelian = not ((X @ Z.T - Z @ X.T) % self.params.p).any()
        return self._abelian

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = fp.mat_rank(self.generator_matrix, self.params.p)
        return self._rank


def is_logical(config: PauliConfig, torus: TorusCode) -> bool:
    """True when the configuration commutes with every cube generator."""
    vec = config_row(config, torus.site_index, torus.n)
    M = torus.generator_matrix
    p = torus.params.p
    # symplectic pairing of each generator row with the config
    e = (M[:, 0::2] @ vec[1::2] - M[:, 1::2] @ vec[0::2]) % p
    return not e.any()


@dataclass(frozen=True)
class PlanarPattern:
    """A tiled plane: normal axis, layer offset, tile translation, transpose."""

    normal_axis: int
    offset: int = 0
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
            site[pattern.normal_axis] = pattern.offset
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
        built = [build_planar_operator(torus.params, PlanarPattern(normal, 0, t, transpose),
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


def planar_census(torus: TorusCode) -> dict:
    """Count valid plane-operator constructions for each orientation.

    The first tier containing a logical, nonempty configuration supplies
    the count: 4 when both in-plane dimensions are even, 2 when one is,
    1 when none are.
    """
    out = {}
    for normal in range(3):
        entry = _census_tier(torus, normal)[0]
        u, v = [a for a in range(3) if a != normal]
        entry["in_plane_dims"] = (torus.dims[u], torus.dims[v])
        out[f"normal_{'xyz'[normal]}"] = entry
    return out


def census_operators(torus: TorusCode, normal: int) -> list[PauliConfig]:
    """The logical plane operators the census counts for one orientation."""
    return _census_tier(torus, normal)[1]


def product_of_all_generators(torus: TorusCode) -> PauliConfig:
    """Sitewise product over every cube generator on the torus.

    Each site collects (1 + s) times the sum of the four pairs: the zero
    configuration for antisymmetric codes (the global relation behind
    their guaranteed encoded qudit), a uniform configuration otherwise.
    """
    total = torus.generator_matrix.sum(axis=0) % torus.params.p
    out = PauliConfig(torus.params.p, torus.dims)
    for t, site in enumerate(torus.cube_positions()):
        out.add(site, (int(total[2 * t]), int(total[2 * t + 1])))
    return out


def encoded_qudit_count(torus: TorusCode) -> int:
    """k = n - rank of the generator matrix over F_p.

    Raises InvalidCodeError for a non-commuting generator family (the
    quantity is undefined there).
    """
    if not torus.check_abelian():
        raise InvalidCodeError("generator family is not abelian on this torus")
    return torus.n - torus.rank


def encoded_qudit_table(params: CodeParams, sizes=range(2, 5)) -> dict[Site, int]:
    """k over a cube of torus sizes; exposes the size dependence of k.

    Every torus is checked against the size limit before any matrix is built.
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
