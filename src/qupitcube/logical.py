"""Planar logical operators and encoded-qudit counting on tori.

A torus L_x x L_y x L_z carries one qupit per site and one cube
generator per site, so the stabilizer group has at most n = L_x L_y L_z
independent generators acting on n qupits; the encoded qudit count is
k = n - rank of the generator family over F_p.  That k is the dimension
of the relations among the generators, and it is counted as such: no
rank is formed.  A relation is a sequence of
layer coefficients whose consecutive pairs lie in one layer relation W;
W comes from a cyclic ``transfer`` along a cross-section row, and the
count from a second one along the sweep axis, so nothing larger
than one cross-section is eliminated and no n x 2n matrix is built.
Both transfers depend on the cross-section only, the row elimination
under W on its short side only, so a table of k builds each once per
short side or cross-section and closes them once per length.

Noncontractible plane operators are built from a 2x2 tile that matches
the generator's face across the plane: the tile entry at in-plane parity
(a, b) is the label l(a, b) on the face vertex with those offsets, the
one diagonal to alpha carrying the code's inversion sign s, and the far
face holds s l(1 - a, 1 - b).  The four unit translates of the tile are
the base tilings; products of translate pairs stay periodic across one
odd direction, and the product of all four is uniform, giving the
4 / 2 / 1 census by the parities of the two in-plane dimensions.  A
candidate's syndrome on the two cube layers that touch the plane is a
sum of entries of the origin cube's label Gram matrix
G = X Z^T - Z X^T, and depends on the torus only through the parities
of the in-plane sides, so one gather from G decides every candidate of
every normal.  The operators it counts become L_u x L_v plane arrays,
and their commutation table is X Z^T - Z X^T on the flattened planes.

Some candidate always decides.  For a tile T, a layer-0 cube at parity
shift e has syndrome sum_i <l(i), T(i + e)>, parities mod 2, and a
layer -1 cube s times the same sum at e + (1, 1).  For T = l the sum
pairs <x, y> with <y, x>, so it is 0:

- both in-plane sides even: the four base tilings are logical and
  nonempty, so the entry is base with count 4;
- one side odd: the pair product periodic along it,
  R_u(y) = l(0, y) + l(1, y), is logical; if R_u = 0, the seam cubes of
  the base tilings sum to <R_u, .> = 0, so the base tilings are logical;
- both sides odd: if F = sum l != 0, the uniform full product decides;
  if F = 0, the seam cubes of each periodic pair product sum to
  <F, .> = 0, and if also R_u = R_v = 0, every seam and corner sum of the
  base tilings is 0.

Commutation on a torus is read off G too: the origin generator's
exponents with its 26 neighbour translates, folded modulo the sides
(``check_abelian``).  The slower constructions these are checked
against (``is_logical`` over the whole torus, ``build_planar_operator``
and the census over its tiled configurations, the product of all
generators and the site-by-site loop) live in ``qupitcube.reference``.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from . import transfer
from .codes import (
    NEIGHBOR_OFFSETS,
    CodeParams,
    Site,
    check_dims,
    generator_labels,
    label_gram,
    neighbor_exponents,
)

# Largest torus.  k comes from two cyclic transfers whose eliminations
# act on one row or one layer of cubes.  At 16^3, d5 takes under 2 ms, and
# the non-deformable p = 3 tuple (1,0)^4, whose layer relation has 287
# dimensions, 0.12-0.15 s at 41 MB peak RSS.  The k table over sides 2..16,
# 3,375 tori, builds one row transfer per (axes, short side) and one layer
# relation per cross-section: 0.22-0.25 s for d5, 13-21 s for (1,0)^4 (2-core
# x86_64 VM, Python 3.11, numpy 2.4).  The census and check_abelian cost
# the same on every torus: at 16^3, d5's `logical` takes 2.1-2.3 ms, 1.6 ms
# of it the transfers for k, and `--ktable 4` adds 3.0-3.3 ms, nearly all transfers.
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
        self._abelian = None

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """The origin generator's (8, 2) labels, ``codes.generator_labels``."""
        return generator_labels(self.params)

    def check_abelian(self) -> bool:
        """All cube generators pairwise commute on the torus.

        By translation invariance it suffices that the origin generator
        commutes with its translates by the 26 neighbour offsets, folded
        modulo the torus sides (``_folded_exponents``); generators further
        apart share no site.
        """
        if self._abelian is None:
            exponents = neighbor_exponents(self.labels, self.params.p)
            self._abelian = not _folded_exponents(exponents, self.dims, self.params.p).any()
        return self._abelian


def _folded_exponents(exponents: np.ndarray, dims, p: int) -> np.ndarray:
    """The origin generator's exponents against its translates on a torus:
    sides of 2 and more keep the cube vertices apart, so each class of
    neighbour offsets modulo ``dims`` sums its members' exponents.  Class o
    sits at the base-3 digits o mod min(L, 3); only a side of 2 merges +-1.
    """
    key = (np.array(NEIGHBOR_OFFSETS) % np.minimum(dims, 3)) @ (9, 3, 1)
    return (key == np.arange(27)[:, None]) @ exponents % p


def _sweep_axes(dims: Site) -> tuple[int, int, int]:
    """The sweep axis (the longest side), then the longer and the shorter
    cross-section side; ties keep axis order."""
    a = max(range(3), key=lambda i: dims[i])
    u, v = sorted((i for i in range(3) if i != a), key=lambda i: -dims[i])
    return a, u, v


def _row_transfer(labels: np.ndarray, p: int, axes: Site, dv: int) -> tuple:
    """The ``transfer.transfer`` along u of the layer relation
    W = {(a, b) : a B1 + b B0 = 0} of the generator with these (8, 2)
    labels; it depends on axes and dv only.

    a and b are coefficients on the cubes of two consecutive layers
    across the sweep axis, the first of ``axes``; the other two are the
    cross-section sides u and v, of size dv along v.  B1 and B0 are how
    those layers act on the site layer between them.  Block y_j holds the
    a and then the b entries of cube row j.  The four cube rows of two
    layers and two rows meet site row 1 of site layer 1 in one length-2
    system, with v wrapped mod dv and u and the layers left open, which
    ``transfer.transfer`` eliminates against the new row.
    """
    wa, wu, wv = (4 >> axis for axis in axes)
    # cubes meet site row 1 of site layer 1 through their vertices with offsets
    # 1 - layer along a, 1 - row along u, and 0 (own column) or 1 along v
    near, far = labels[[[wa * (1 - layer) + wu * (1 - row) + wv * k
                         for row in (1, 0) for layer in (0, 1)]
                        for k in (0, 1)]]
    eye = np.eye(dv, dtype=np.int64)[..., None]
    rows = near[:, None, None] * eye + far[:, None, None] * eye[(np.arange(dv) + 1) % dv]
    return transfer.transfer((rows.reshape(4 * dv, 2 * dv) % p).T, 2 * dv, p)


def _wrapped_relation(row_transfer: tuple, du: int, dv: int, p: int) -> np.ndarray:
    """Basis (a | b) of the layer relation W of ``_row_transfer``, one row
    each, on a cross-section with du cube rows: the period-du states of
    ``transfer.periodic_states`` wrap u, sides 1 and 2 included.  Entries
    are indexed row-major by their (u, v) position.  W depends on the
    cross-section only."""
    y = transfer.periodic_states(*row_transfer, du, p)  # (dim W, cube row j, 2 dv)
    return np.hstack([y[..., :dv].reshape(len(y), du * dv),
                      y[..., dv:].reshape(len(y), du * dv)])


def _left_kernel_dims(params: CodeParams, du: int, dv: int, lengths,
                      row_transfer: tuple) -> list[int]:
    """Relation counts of the tori with one cross-section, one per length.

    ``row_transfer`` is ``_row_transfer(labels, p, axes, dv)``.  The torus
    has sides ``du`` and ``dv`` along the cross-section axes ``axes[1:]``
    and each L in ``lengths`` along the sweep axis ``axes[0]``.
    Coefficients lambda_0..lambda_{L-1}, one vector per layer along the
    sweep axis, multiply to the identity iff every cyclically consecutive
    pair lies in the layer relation W (``_wrapped_relation``).  W's rows
    are independent, so each such sequence is (theta_g W_a) for exactly
    one cyclic theta-sequence with theta_{g+1} W_a = theta_g W_b: a second
    transfer, with dim W entries per layer, closed with period L.
    Neither W nor that transfer depends on L, so only the closure runs
    once per length.  Neither transfer eliminates anything larger than
    one cross-section.  ``reference.left_kernel_dim_by_composition`` is
    the relation-composition sweep this replaced.
    """
    p = params.p
    W = _wrapped_relation(row_transfer, du, dv, p)
    m = W.shape[1] // 2
    A, F, v = transfer.transfer(np.hstack([W[:, :m].T, (-W[:, m:].T) % p]), len(W), p)
    return transfer.periodic_dims(A, F, v, lengths, p)


# Each census candidate's combination of the four translated tilings:
# the tilings, the paper pairing of translate products (periodic across
# one direction), and the product of all four (uniform).
CENSUS_PRODUCTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                   (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1))
CENSUS_TIERS = (("base", (0, 1, 2, 3)), ("pair-products", (4, 5, 6, 7)),
                ("full-product", (8,)))


def _tile_vertex(wu, wv, t, su, sv):
    """Index in ``VERTICES`` of the face label that tiling t puts on in-plane
    site (su, sv): the face vertex (offset 0 along the normal) at the site
    parities shifted by (t mod 2, t // 2).  ``wu`` and ``wv`` weigh the u
    and v parities in a vertex index.  Every argument broadcasts."""
    return wu * ((su ^ t) & 1) + wv * ((sv ^ t >> 1) & 1)


@functools.cache
def _census_pairs() -> np.ndarray:
    """Vertex pairs 8 i + j whose Gram entries sum to the tilings' syndromes,
    independent of the code and the torus: (3, 4, 2, 3, 3, 4) by normal,
    tiling, cube layer (0, then -1), cube position (c_u, c_v) on a 3 x 3
    plane, and vertex.

    The syndrome at a cube sums <label i, plane at c + v_i> over the four
    vertices i on the plane, and a tiling's label at a site depends only
    on the site's parities.  So a cube's syndrome depends only on the
    parity pairs of the sites it spans along u and along v: (0, 1) and
    (1, 0) on every side, and on an odd side also the seam (0, 0).  On the
    3 x 3 plane, positions 0, 1 and 2 span exactly these three.  Built at
    the first census and kept, read only.
    """
    weights = 4 >> np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])  # normal, u, v
    normal, t, layer, cu, cv, vu, vv = np.ix_(
        range(3), range(4), (0, 1), range(3), range(3), (0, 1), (0, 1))
    wn, wu, wv = (weights[normal, k] for k in range(3))
    tile = _tile_vertex(wu, wv, t, (cu + vu) % 3, (cv + vv) % 3)
    pairs = (8 * (wn * layer + wu * vu + wv * vv) + tile).reshape(3, 4, 2, 3, 3, 4)
    pairs.flags.writeable = False
    return pairs


def _census_verdicts(torus: TorusCode) -> tuple[np.ndarray, np.ndarray]:
    """Whether each census candidate is logical and whether it is nonempty,
    each (3, 9) by normal axis and candidate: one gather from the label
    Gram matrix gives the tilings' syndromes on the plane of
    ``_census_pairs``, less its seam along even sides, and one from the
    labels their values there (vertex 0 of a layer-0 cube is its own site).
    """
    pairs = _census_pairs()
    syndromes = label_gram(torus.labels).ravel()[pairs].sum(-1)
    even = np.array(torus.dims)[[[1, 2], [0, 2], [0, 1]]] % 2 == 0
    syndromes[even[:, 0], ..., 2, :] = 0
    syndromes[even[:, 1], ..., 2] = 0
    tilings = np.concatenate([syndromes.reshape(3, 4, 18),
                              torus.labels[pairs[:, :, 0, :, :, 0]].reshape(3, 4, 18)],
                             axis=-1)
    candidates = np.array(CENSUS_PRODUCTS) @ tilings % torus.params.p
    return ~candidates[..., :18].any(-1), candidates[..., 18:].any(-1)


def _census_planes(torus: TorusCode, normal: int, indices) -> np.ndarray:
    """The census candidates ``indices`` as (count, L_u, L_v, 2) plane
    arrays on the site layer 0 along ``normal``; products are sitewise
    sums mod p."""
    u, v = [a for a in range(3) if a != normal]
    cu, cv = np.arange(torus.dims[u])[:, None], np.arange(torus.dims[v])
    tilings = torus.labels[_tile_vertex(4 >> u, 4 >> v, np.arange(4)[:, None, None], cu, cv)]
    planes = np.array(CENSUS_PRODUCTS)[indices] @ tilings.reshape(4, -1) % torus.params.p
    return planes.reshape(len(indices), *tilings.shape[1:])


def plane_census(torus: TorusCode) -> dict[str, tuple[dict, np.ndarray]]:
    """Each orientation's census entry and the plane arrays of the logical
    operators it counts, from one batch of verdicts (``_census_verdicts``).

    Tiers run through ``CENSUS_TIERS`` in order.  The first tier
    containing a logical, nonempty candidate supplies the count: 4 when
    both in-plane dimensions are even, 2 when one is, 1 when none are.
    By the three cases of the module docstring some tier always does:
    both sides even, the base tilings; one side odd, the pair product
    periodic along it, or the base tilings when R_u = 0; both odd, the
    full product, or when F = 0 a periodic pair product, or when also
    R_u = R_v = 0 the base tilings.  So the tile is never transposed and
    ``"transpose"`` is always False.  Each (L_u, L_v, 2) array holds the
    operator on the site layer 0 along the normal.
    """
    logical, nonempty = _census_verdicts(torus)
    good = (logical & nonempty).tolist()
    out = {}
    for normal in range(3):
        tier, ok = next((tier, ok) for tier, indices in CENSUS_TIERS
                        if (ok := [k for k in indices if good[normal][k]]))
        u, v = [a for a in range(3) if a != normal]
        entry = {"count": len(ok), "tier": tier, "transpose": False,
                 "in_plane_dims": (torus.dims[u], torus.dims[v])}
        out[f"normal_{'xyz'[normal]}"] = (entry, _census_planes(torus, normal, ok))
    return out


def encoded_qudit_count(torus: TorusCode) -> int:
    """k = n - rank of the generator family over F_p: the dimension of
    the relations among the generators, swept along the longest side
    (``_sweep_axes``).

    Raises InvalidCodeError for a non-commuting generator family (the
    quantity is undefined there).
    """
    if not torus.check_abelian():
        raise InvalidCodeError("generator family is not abelian on this torus")
    params, dims = torus.params, torus.dims
    a, u, v = _sweep_axes(dims)
    return _left_kernel_dims(params, dims[u], dims[v], [dims[a]],
                             _row_transfer(torus.labels, params.p, (a, u, v), dims[v]))[0]


def encoded_qudit_table(params: CodeParams, sizes=range(2, 5)) -> dict[Site, int]:
    """k over a cube of torus sizes; exposes the size dependence of k.

    Every torus is checked against the size limit before any k is
    computed.  The neighbour exponents are read off the label Gram matrix
    once, and abelian-ness is decided once per pattern of sides equal to
    2: a torus folds the exponents by offset mod min(L, 3)
    (``_folded_exponents``), so only a side of 2 merges offsets, and a
    side of 3 answers for every longer one.  The sweep runs along the
    first axis: one row transfer per (axes, short side), one layer
    relation per cross-section (L_y, L_z), and all L_x close it.
    """
    sizes = list(sizes)
    tori = [TorusCode(params, dims) for dims in product(sizes, repeat=3)]
    patterns = {tuple(min(L, 3) for L in torus.dims) for torus in tori}
    labels = generator_labels(params)
    exponents = neighbor_exponents(labels, params.p)
    if any(_folded_exponents(exponents, dims, params.p).any() for dims in patterns):
        raise InvalidCodeError("generator family is not abelian on this torus")
    table, row_transfers = {}, {}
    for Ly, Lz in product(sizes, repeat=2):
        axes, du, dv = ((0, 1, 2), Ly, Lz) if Ly >= Lz else ((0, 2, 1), Lz, Ly)
        if (axes, dv) not in row_transfers:
            row_transfers[axes, dv] = _row_transfer(labels, params.p, axes, dv)
        ks = _left_kernel_dims(params, du, dv, sizes, row_transfers[axes, dv])
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

