"""Planar logical operators and encoded-qudit counting on tori.

A torus L_x x L_y x L_z carries one qupit per site and one cube
generator per site, so the stabilizer group has at most n = L_x L_y L_z
independent generators acting on n qupits; the encoded qudit count is
k = n - rank of the generator family over F_p.  That k is the dimension
of the relations among the generators.  A relation is a sequence of
layer coefficients whose consecutive pairs lie in one layer relation W;
W comes from a cyclic ``transfer`` along a cross-section row, and the
count from a second one along the sweep axis, so nothing larger
than one cross-section is eliminated and no n x 2n matrix is built.
Both transfers depend on the cross-section only, so a table of k over
many tori builds them once per cross-section and closes them once per
length.

Noncontractible plane operators are built from a 2x2 tile that matches
the generator's face across the plane: the tile entry at in-plane parity
(a, b) is the generator label on the face vertex with those offsets, and
the label diagonal to alpha inherits the inversion sign of the code.
The four unit translates of the tile are the base patterns; products of
translate pairs stay periodic across one odd direction, and the product
of all four is uniform, giving the 4 / 2 / 1 census by the parities of
the two in-plane dimensions.  The census keeps each candidate as an
L_u x L_v array of pairs on the plane, and decides all nine of one tile
alignment at once from their syndromes on the only two cube layers that
touch the plane.  The operators it counts stay plane arrays, and their
commutation table is X Z^T - Z X^T on the flattened planes.

Commutation on a torus is read off the origin generator: its exponent
with each translate comes from its own support (``check_abelian``).  The
slower constructions these are checked against (``is_logical`` over the
whole torus, ``build_planar_operator``, the 26 shifted copies) live in
``qupitcube.reference``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import transfer
from .codes import (
    NEIGHBOR_OFFSETS,
    CodeParams,
    PauliConfig,
    Site,
    add_pairs,
    build_generator,
    check_dims,
    generator_config,
    generator_rows,
    translation_exponents,
)

# Largest torus.  k comes from two cyclic transfers whose eliminations
# act on one row or one layer of cubes.  At 16^3, d5 takes under 10 ms,
# and the non-deformable p = 3 tuple (1,0)^4, whose layer relation has 287
# dimensions, 0.2-0.3 s at 42 MB peak RSS.  The k table over all sides
# 2..16, 3,375 tori, builds each cross-section's transfers once: under a
# second for d5, 15-16 s for (1,0)^4 (2-core x86_64 VM, Python 3.11,
# numpy 2.4).  The census and check_abelian keep to the same bound.
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
            self._abelian = not any(translation_exponents(g, sorted(offsets)))
        return self._abelian

    @property
    def rank(self) -> int:
        """Rank of the n cube generators over F_p, as n - k."""
        if self._rank is None:
            self._rank = self.n - _left_kernel_dim(self.params, self.dims)
        return self._rank


def _sweep_axes(dims: Site) -> tuple[int, int, int]:
    """The sweep axis (the longest side), then the longer and the shorter
    cross-section side; ties keep axis order."""
    a = max(range(3), key=lambda i: dims[i])
    u, v = sorted((i for i in range(3) if i != a), key=lambda i: -dims[i])
    return a, u, v


def _layer_relation(params: CodeParams, axes: Site, du: int, dv: int) -> np.ndarray:
    """Basis (a | b) of W = {(a, b) : a B1 + b B0 = 0}, one row each.

    a and b are coefficients on the cubes of two consecutive layers
    across the sweep axis, the first of ``axes``; the other two are the
    cross-section sides u and v, of sizes ``du`` and ``dv``.  Entries are
    indexed row-major by their (u, v) position; B1 and B0 are how those
    layers act on the site layer between them.  W comes from a cyclic
    transfer along u: block y_j holds the a and then the b entries of
    cube row j.  The four cube rows of two layers and two rows meet site
    row 1 of site layer 1 in one length-2 system, with v wrapped mod dv
    and u and the layers left open.  ``transfer.transfer`` eliminates it
    against the new row, and the period-du states of
    ``transfer.periodic_states`` wrap u, sides 1 and 2 included.  W
    depends on the cross-section only.
    """
    p = params.p
    a, u, v = axes

    def cube(layer, row, cv):
        c = [0, 0, 0]
        c[a], c[u], c[v] = layer, row, cv
        return tuple(c)

    def index(site):
        return site[v] % dv if site[a] == 1 and site[u] == 1 else None

    cubes = [cube(layer, row, cv) for row in (1, 0) for layer in (0, 1) for cv in range(dv)]
    A, F, w = transfer.transfer(generator_rows(params, cubes, index, dv).T, 2 * dv, p)
    y = transfer.periodic_states(A, F, w, du, p)  # (dim W, cube row j, 2 dv)
    return np.hstack([y[..., :dv].reshape(len(y), du * dv),
                      y[..., dv:].reshape(len(y), du * dv)])


def _left_kernel_dims(params: CodeParams, axes: Site, du: int, dv: int,
                      lengths) -> list[int]:
    """Relation counts of the tori with one cross-section, one per length.

    The torus has sides ``du`` and ``dv`` along the cross-section axes
    ``axes[1:]`` and each L in ``lengths`` along the sweep axis
    ``axes[0]``.  Coefficients lambda_0..lambda_{L-1}, one vector per
    layer along the sweep axis, multiply to the identity iff every
    cyclically consecutive pair lies in the layer relation W
    (``_layer_relation``).  W's rows are independent, so each such
    sequence is (theta_g W_a) for exactly one cyclic theta-sequence with
    theta_{g+1} W_a = theta_g W_b: a second transfer, with dim W entries
    per layer, closed with period L.  Neither W nor that transfer depends
    on L, so only the closure runs once per length.  Neither transfer
    eliminates anything larger than one cross-section.
    ``reference.left_kernel_dim_by_composition`` is the
    relation-composition sweep this replaced.
    """
    p = params.p
    W = _layer_relation(params, axes, du, dv)
    m = W.shape[1] // 2
    A, F, v = transfer.transfer(np.hstack([W[:, :m].T, (-W[:, m:].T) % p]), len(W), p)
    return transfer.periodic_dims(A, F, v, lengths, p)


def _left_kernel_dim(params: CodeParams, dims: Site) -> int:
    """Dimension of the space of cube coefficients whose product is identity,
    swept along the longest side (``_sweep_axes``)."""
    a, u, v = _sweep_axes(dims)
    return _left_kernel_dims(params, (a, u, v), dims[u], dims[v], [dims[a]])[0]


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


def _plane_syndromes(params: CodeParams, normal: int, planes: np.ndarray) -> np.ndarray:
    """Syndromes of configurations supported on the site layer 0 along ``normal``.

    ``planes`` is (k, L_u, L_v, 2).  Only the cube layers 0 and -1 touch
    that site layer, layer 0 through its vertices with offset 0 along
    ``normal`` and layer -1 through those with offset 1, so the whole
    syndrome is (2, k, L_u, L_v).  At cube c it sums the symplectic
    product of each such vertex's label with the plane at c + vertex, so
    it is a sum of the plane arrays rolled by -vertex.
    """
    u, v = [a for a in range(3) if a != normal]
    out = np.zeros((2, *planes.shape[:-1]), dtype=np.int64)
    for vert, (lx, lz) in build_generator(params).items():
        shifted = np.roll(planes, (-vert[u], -vert[v]), axis=(1, 2))
        out[vert[normal]] += lx * shifted[..., 1] - lz * shifted[..., 0]
    return out % params.p


def _census_candidates(params: CodeParams, dims: Site, normal: int,
                       transpose: bool) -> np.ndarray:
    """The nine census candidates of one tile alignment, as (9, L_u, L_v, 2).

    A tiling labels each site of the plane through the origin by its
    in-plane coordinate parities, shifted by a translation (ta, tb) in
    {0, 1}^2 and swapped when ``transpose`` is set.  Candidates 0-3 are
    the four translated tilings, 4-7 the paper pairing of translate
    products (periodic across one direction), and 8 the product of all
    four (uniform); products are sitewise sums mod p.
    """
    p = params.p
    u, v = [a for a in range(3) if a != normal]
    tile = face_tile(params, normal)
    tile = np.array([[tile[(0, 0)], tile[(0, 1)]], [tile[(1, 0)], tile[(1, 1)]]],
                    dtype=np.int64)
    cu = np.arange(dims[u])[:, None]
    cv = np.arange(dims[v])[None, :]
    base = []
    for ta, tb in ((0, 0), (1, 0), (0, 1), (1, 1)):
        a, b = (cu + ta) % 2, (cv + tb) % 2
        base.append(tile[b, a] if transpose else tile[a, b])
    base = np.array(base)
    pairs = (base[[0, 2, 0, 1]] + base[[1, 3, 2, 3]]) % p
    return np.concatenate([base, pairs, (pairs[:1] + pairs[1:2]) % p])


CENSUS_TIERS = (("base", (0, 1, 2, 3)), ("pair-products", (4, 5, 6, 7)),
                ("full-product", (8,)))


def _census_tier(torus: TorusCode, normal: int) -> tuple[dict, np.ndarray]:
    """The first tier with a logical, nonempty candidate, and its operators.

    Tiers run through ``CENSUS_TIERS`` in order, the plain tile alignment
    before the transposed one.  The nine candidates of an alignment get
    their syndromes in one batch; the counted ones are returned as their
    (count, L_u, L_v, 2) plane arrays.
    """
    for transpose in (False, True):
        candidates = _census_candidates(torus.params, torus.dims, normal, transpose)
        logical = ~_plane_syndromes(torus.params, normal, candidates).any(axis=(0, 2, 3))
        good = logical & candidates.any(axis=(1, 2, 3))
        for tier, indices in CENSUS_TIERS:
            ok = [k for k in indices if good[k]]
            if ok:
                return ({"count": len(ok), "tier": tier, "transpose": transpose},
                        candidates[ok])
    return {"count": 0, "tier": None, "transpose": None}, candidates[:0]


def plane_census(torus: TorusCode) -> dict[str, tuple[dict, np.ndarray]]:
    """Each orientation's census entry and the plane arrays of the logical
    operators it counts, from one tier search per normal axis.

    The first tier containing a logical, nonempty configuration supplies
    the count: 4 when both in-plane dimensions are even, 2 when one is,
    1 when none are.  Each (L_u, L_v, 2) array holds the operator on the
    site layer 0 along the normal.
    """
    out = {}
    for normal in range(3):
        entry, ops = _census_tier(torus, normal)
        u, v = [a for a in range(3) if a != normal]
        entry["in_plane_dims"] = (torus.dims[u], torus.dims[v])
        out[f"normal_{'xyz'[normal]}"] = (entry, ops)
    return out


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
    if total != (0, 0):
        out.support = dict.fromkeys(product(*map(range, torus.dims)), total)
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

    Every torus is checked against the size limit before any k is
    computed.  Abelian-ness is decided once per pattern of sides capped at
    3: from side 3 on, the 26 folded neighbour offsets are distinct and
    each translate meets the origin cube on the sites it meets on the
    infinite lattice, so a side of 3 answers for every longer one.  The
    sweep runs along the first axis, so each cross-section (L_y, L_z)
    gives its layer relation once, and all L_x close it.
    """
    sizes = list(sizes)
    tori = [TorusCode(params, dims) for dims in product(sizes, repeat=3)]
    patterns = {tuple(min(L, 3) for L in torus.dims) for torus in tori}
    if not all(TorusCode(params, dims).check_abelian() for dims in patterns):
        raise InvalidCodeError("generator family is not abelian on this torus")
    table = {}
    for Ly, Lz in product(sizes, repeat=2):
        axes = (0, 1, 2) if Ly >= Lz else (0, 2, 1)
        ks = _left_kernel_dims(params, axes, max(Ly, Lz), min(Ly, Lz), sizes)
        table.update({(Lx, Ly, Lz): k for Lx, k in zip(sizes, ks)})
    return {torus.dims: table[torus.dims] for torus in tori}


def commutation_table(ops: np.ndarray, p: int) -> np.ndarray:
    """Pairwise commutation exponents; antisymmetric with zero diagonal.

    ``ops`` is (k, ..., 2): k operators as (x, z) pairs over one shared
    array of sites.  Entry (i, j) is e with C_i C_j = C_j C_i omega^e,
    which is X Z^T - Z X^T with the sites flattened.
    """
    X, Z = ops[..., 0], ops[..., 1]
    sites = list(range(1, X.ndim))
    XZ = np.tensordot(X, Z, (sites, sites))
    return (XZ - XZ.T) % p

