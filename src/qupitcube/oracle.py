"""Exact decision procedure for nontrivial logical string segments.

A candidate segment lives on a width-w, length-l strip of lattice sites,
either flat (contained in one lattice plane) or cornered (an L-shaped
cross section bent around an edge).  Its unknowns are the symplectic
pairs on the strip.  Every cube generator that overlaps the strip while
staying clear of the two anchor cross-sections (one lattice step beyond
each end) imposes one linear constraint: the total symplectic product
between the generator's labels and the unknowns on the shared sites must
vanish.  The solution space of that system is computed exactly over F_p.

A solution is counted as a nontrivial segment when the solution space
projects nonzero onto BOTH end columns of the strip.  Over a field a
linear space is never the union of two proper subspaces, so this is
equivalent to the existence of a single witness acting at both ends,
which is the operational stand-in for "every equivalent segment stays
connected between the anchors".

Length scans do not solve one system per length: the strip system is
translation invariant, so one block elimination per strip family
(``strip_transfer``) decides every length.  ``solve_segment`` solves a
single geometry densely; it is the fallback for rank-deficient pivot
blocks and the reference the tests compare the scan against.

Column layout: sites are ordered along the strip (length-major, then
cross-section); each site contributes two adjacent columns holding
(z-exponent, x-exponent).  With that order the width-1 constraint blocks
are literally the 2x2 base matrices [[g1, -g2], ...] of the transition
formalism, which the canonical block reduction exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import fp
from .codes import (
    CodeParams,
    PauliConfig,
    Site,
    commutation_exponent,
    config_row,
    cubes_touching,
    generator_config,
    generator_rows,
)
from .conditions import (
    PrerequisiteError,
    check_deformability,
    minimal_string_determinants,
)


class DegenerateGeometryError(ValueError):
    """Raised for geometries too small to separate the two anchors."""


class PivotError(ValueError):
    """Raised when block elimination meets a rank-deficient pivot block
    (possible only when deformability fails)."""


class FlattenError(ValueError):
    """Raised when a configuration cannot be deformed onto the target
    profile; carries the first blocking site."""

    def __init__(self, site: Site, message: str | None = None):
        self.site = site
        super().__init__(message or f"cannot eliminate support at site {site}")


ORIENTATIONS: tuple[tuple[int, int], ...] = tuple(permutations(range(3), 2))


@dataclass(frozen=True)
class SegmentGeometry:
    """Strip geometry: kind, width, length, axes, and corner position.

    ``orientation`` is (length_axis, width_axis).  For a cornered strip
    the cross section runs ``corner_at`` sites along the width axis and
    then bends along the remaining axis; 1 <= corner_at < width.
    """

    kind: str
    width: int
    length: int
    orientation: tuple[int, int] = (0, 1)
    corner_at: int | None = None

    def __post_init__(self):
        if self.kind not in ("flat", "cornered"):
            raise ValueError(f"kind must be 'flat' or 'cornered', got {self.kind!r}")
        la, wa = self.orientation
        if la == wa or not {la, wa} <= {0, 1, 2}:
            raise ValueError(f"orientation must be two distinct axes, got {self.orientation}")
        if self.width < 1 or self.length < 2:
            raise DegenerateGeometryError(
                f"need width >= 1 and length >= 2, got w={self.width}, l={self.length}")
        if self.kind == "cornered":
            if self.corner_at is None or not 1 <= self.corner_at < self.width:
                raise DegenerateGeometryError(
                    f"cornered strip needs 1 <= corner_at < width, got {self.corner_at}")
        elif self.corner_at is not None:
            raise ValueError("corner_at is only meaningful for cornered strips")

    @property
    def length_axis(self) -> int:
        return self.orientation[0]

    @property
    def width_axis(self) -> int:
        return self.orientation[1]

    @property
    def bend_axis(self) -> int:
        return 3 - self.orientation[0] - self.orientation[1]

    def cross_section(self) -> list[Site]:
        """Cross-section offsets (zero along the length axis)."""
        offs = []
        for i in range(self.width if self.kind == "flat" else self.corner_at):
            o = [0, 0, 0]
            o[self.width_axis] = i
            offs.append(tuple(o))
        if self.kind == "cornered":
            for k in range(1, self.width - self.corner_at + 1):
                o = [0, 0, 0]
                o[self.width_axis] = self.corner_at - 1
                o[self.bend_axis] = k
                offs.append(tuple(o))
        return offs

    def column_sites(self, j: int) -> list[Site]:
        cs = self.cross_section()
        out = []
        for o in cs:
            q = list(o)
            q[self.length_axis] += j
            out.append(tuple(q))
        return out

    def support(self) -> list[Site]:
        """All strip sites, length-major then cross-section order."""
        out = []
        for j in range(self.length):
            out.extend(self.column_sites(j))
        return out

    def anchors(self) -> tuple[set[Site], set[Site]]:
        """The two anchor cross-sections, one step beyond each strip end."""
        return set(self.column_sites(-1)), set(self.column_sites(self.length))


@dataclass
class ConstraintSystem:
    """Assembled constraint matrix over the strip sites, in column order."""

    sites: list[Site]
    matrix: np.ndarray


def build_segment_constraints(params: CodeParams, geom: SegmentGeometry) -> ConstraintSystem:
    """One scalar row per generator overlapping the strip but not the anchors.

    A row pairs the generator symplectically with the (z, x) unknowns: its
    (x, z) labels land on the (z, x) columns with the second one negated.
    """
    support = geom.support()
    if not support:
        raise DegenerateGeometryError("empty strip support")
    index = {q: t for t, q in enumerate(support)}
    anchor1, anchor2 = geom.anchors()
    cubes = cubes_touching(support, avoid=anchor1 | anchor2)
    rows = generator_rows(params, cubes, index.get, len(support))
    rows[:, 1::2] = (-rows[:, 1::2]) % params.p
    return ConstraintSystem(support, rows)


def _vector_to_config(params: CodeParams, sites: list[Site], vec: np.ndarray) -> PauliConfig:
    cfg = PauliConfig(params.p)
    for t, q in enumerate(sites):
        pair = (int(vec[2 * t + 1]), int(vec[2 * t]))  # columns hold (z, x)
        if pair != (0, 0):
            cfg.add(q, pair)
    return cfg


@dataclass
class SegmentSolution:
    """Verdict for one geometry: solution space size, nontriviality, and a witness."""

    geometry: SegmentGeometry
    nullspace_dim: int
    nontrivial: bool
    witness: PauliConfig | None


def solve_segment(params: CodeParams, geom: SegmentGeometry) -> SegmentSolution:
    """Solve the constraint system and decide nontriviality for one geometry."""
    system = build_segment_constraints(params, geom)
    basis = fp.nullspace(system.matrix, params.p)
    k = len(geom.cross_section())
    first = list(range(0, 2 * k))
    last = list(range(2 * k * (geom.length - 1), 2 * k * geom.length))
    witness_vec = _ends_witness(basis, first, last, params.p)
    return SegmentSolution(
        geometry=geom,
        nullspace_dim=basis.shape[0],
        nontrivial=witness_vec is not None,
        witness=None if witness_vec is None else
            _vector_to_config(params, system.sites, witness_vec),
    )


def _ends_witness(basis: np.ndarray, idx1: list[int], idx2: list[int], p: int):
    """A nullspace vector nonzero on both end-column index sets, if one exists.

    Both projections nonzero is sufficient: a space over F_p is never the
    union of two proper subspaces, and u + v repairs a vector vanishing
    at one end.
    """
    if basis.size == 0:
        return None
    on1 = [v for v in basis if v[idx1].any()]
    on2 = [v for v in basis if v[idx2].any()]
    if not on1 or not on2:
        return None
    u = on1[0]
    if u[idx2].any():
        return u
    v = on2[0]
    if v[idx1].any():
        return v
    return (u + v) % p


def geometries(width: int, length: int, kind: str) -> list[SegmentGeometry]:
    """All scan geometries for a width and length (cornered: all corners)."""
    out = []
    for o in ORIENTATIONS:
        if kind == "flat":
            out.append(SegmentGeometry("flat", width, length, o))
        else:
            for w1 in range(1, width):
                out.append(SegmentGeometry("cornered", width, length, o, w1))
    return out


@dataclass
class SegmentReport:
    """Scan result over lengths: largest nontrivial length and aspect ratio."""

    width: int
    kind: str
    lengths_scanned: list[int]
    nullspace_dims: dict[int, int]
    nontrivial_lengths: list[int]
    max_nontrivial_length: int | None
    aspect_ratio: Fraction | None
    witness: PauliConfig | None = None
    witness_geometry: SegmentGeometry | None = None

    def as_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [{"site": list(q), "pair": list(pair)}
                       for q, pair in sorted(self.witness.support.items())]
        return {
            "width": self.width,
            "kind": self.kind,
            "lengths_scanned": self.lengths_scanned,
            "nullspace_dims": {str(l): d for l, d in sorted(self.nullspace_dims.items())},
            "nontrivial_lengths": self.nontrivial_lengths,
            "max_nontrivial_length": self.max_nontrivial_length,
            "aspect_ratio": None if self.aspect_ratio is None else
                [self.aspect_ratio.numerator, self.aspect_ratio.denominator],
            "witness": witness,
        }


def strip_transfer(params: CodeParams, geom: SegmentGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix ``A`` and leftover rows ``v`` of a strip family.

    The strip system is translation invariant along the length axis: the
    generators whose cubes start at length position g act on column
    blocks g and g+1 through the same two blocks for every g.  Eliminating
    the length-2 system against its first column block therefore gives,
    at every length, ``x_g = A x_{g+1}`` (``A = -T``) and ``v x_{g+1} = 0``.
    Only ``geom.kind``, width, orientation and corner are used.

    Raises PivotError when the first column block is rank deficient,
    which can only happen for codes failing deformability.
    """
    p = params.p
    system = build_segment_constraints(params, replace(geom, length=2))
    ncols = system.matrix.shape[1] // 2
    R, pivots = fp.mat_rref(system.matrix, p, n_pivot_cols=ncols)
    if len(pivots) < ncols:
        raise PivotError(f"pivot block of the {geom.kind} width-{geom.width} strip "
                         f"along axis {geom.length_axis} has rank < {ncols}")
    return (-R[:ncols, ncols:]) % p, R[ncols:, ncols:]


def _transfer_witness(params: CodeParams, geom: SegmentGeometry, A: np.ndarray,
                      kernel: np.ndarray) -> PauliConfig:
    """The witness ``solve_segment`` reports, from ``_scan_family``'s basis of ``K_l``.

    Each ``x`` in ``K_l`` expands to the strip solution
    ``(A^(l-1) x, ..., A x, x)``.  The expanded basis is already the one
    ``fp.nullspace`` returns: the kernel basis is a product of
    ``fp.nullspace`` bases, so each vector ends in a 1 at its own column
    of the last block, with zeros there in the others, in increasing order.
    """
    p = params.p
    blocks = [kernel]
    for _ in range(geom.length - 1):
        blocks.append((blocks[-1] @ A.T) % p)
    basis = np.concatenate(blocks[::-1], axis=1)
    ncols = A.shape[0]
    first = list(range(ncols))
    last = list(range(ncols * (geom.length - 1), ncols * geom.length))
    return _vector_to_config(params, geom.support(), _ends_witness(basis, first, last, p))


def _scan_family(params: CodeParams, geom: SegmentGeometry, l_max: int) -> list:
    """``(nullspace_dim, nontrivial, witness)`` for lengths 2..l_max of one
    strip family; ``witness`` is a callable building the witness config.

    The solutions of length l are fixed by their last column x, which
    ranges over ``K_l = {x : v A^i x = 0 for i < l-1}``; the first column
    is ``A^(l-1) x``.  So ``dim K_l`` is the nullspace dimension and the
    segment is nontrivial iff ``A^(l-1) K_l != 0``.  A family whose pivot
    block is rank deficient is solved densely at every length instead.
    """
    p = params.p
    try:
        A, v = strip_transfer(params, geom)
    except PivotError:
        out = []
        for length in range(2, l_max + 1):
            sol = solve_segment(params, replace(geom, length=length))
            out.append((sol.nullspace_dim, sol.nontrivial, lambda sol=sol: sol.witness))
        return out
    kernel = np.eye(A.shape[0], dtype=np.int64)  # basis of K_1, one vector per row
    power = np.eye(A.shape[0], dtype=np.int64)   # A^(l-2)
    out = []
    for length in range(2, l_max + 1):
        if kernel.shape[0]:
            coeffs = fp.nullspace(((v @ power) % p @ kernel.T) % p, p)
            kernel = (coeffs @ kernel) % p
        power = (A @ power) % p
        nontrivial = bool(((kernel @ power.T) % p).any())
        out.append((kernel.shape[0], nontrivial,
                    lambda g=replace(geom, length=length), k=kernel:
                    _transfer_witness(params, g, A, k)))
    return out


def max_nontrivial_length(params: CodeParams, width: int, l_max: int | None = None,
                          kind: str = "flat") -> SegmentReport:
    """Scan lengths 2..l_max over all orientations (and corner positions).

    The default horizon 2*width + 4 comfortably covers both the w+1 and
    the 2w length bounds.  Width-1 cornered strips have no admissible
    corner and come back empty.  Each strip family is decided at every
    length from one block elimination (``strip_transfer``); the report
    equals the one ``solve_segment`` gives length by length.
    """
    if l_max is None:
        l_max = 2 * width + 4
    if l_max < 2:
        raise ValueError(f"l_max must be >= 2, got {l_max}")
    lengths = list(range(2, l_max + 1))
    families = [(geom, _scan_family(params, geom, l_max))
                for geom in geometries(width, 2, kind)]
    dims: dict[int, int] = {}
    found: list[int] = []
    if families:
        for i, length in enumerate(lengths):
            dims[length] = max(scan[i][0] for _, scan in families)
            if any(scan[i][1] for _, scan in families):
                found.append(length)
    witness = None
    witness_geom = None
    max_len = max(found) if found else None
    if max_len is not None:
        # as the length-by-length scan: the first nontrivial family at the last hit
        i = max_len - 2
        geom, scan = next((g, s) for g, s in families if s[i][1])
        witness = scan[i][2]()
        witness_geom = replace(geom, length=max_len)
    return SegmentReport(
        width=width,
        kind=kind,
        lengths_scanned=lengths,
        nullspace_dims=dims,
        nontrivial_lengths=found,
        max_nontrivial_length=max_len,
        aspect_ratio=None if max_len is None else Fraction(max_len, width),
        witness=witness,
        witness_geometry=witness_geom,
    )


def verify_witness(params: CodeParams, geom: SegmentGeometry, witness: PauliConfig) -> bool:
    """Re-check a witness against every anchor-avoiding generator.

    Independent of the constraint matrix: generators are rebuilt as
    configurations and tested through the commutation exponent.
    """
    anchor1, anchor2 = geom.anchors()
    for c in cubes_touching(witness.support, avoid=anchor1 | anchor2):
        if commutation_exponent(generator_config(params, c), witness) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical block reduction


@dataclass
class ReductionResult:
    """Outcome of the structured block elimination of a strip system."""

    width: int
    length: int
    transfer_blocks: list[np.ndarray]
    leftover_blocks: list[np.ndarray]
    residual: np.ndarray
    rank: int
    nullspace_dim: int
    direct_rank: int
    agrees_with_direct: bool
    krylov_bound_ok: bool


def canonical_reduction(params: CodeParams, width: int, length: int,
                        orientation: tuple[int, int] = (0, 1),
                        kind: str = "flat", corner_at: int | None = None) -> ReductionResult:
    """Block-eliminate the strip system into upper block-triangular form.

    Constraint rows split by the length coordinate of their cube; every
    group touches only two adjacent column blocks through the same pair
    of blocks, so eliminating each group against its own column block
    (``strip_transfer``) leaves an identity block, a transfer block T
    feeding the next column, and leftover rows v.  The leftover rows
    propagate to the final column block, whose rank fixes the rank of
    the whole system:

        rank = 2w(l-1) + rank(residual)
             <= 2w(l-1) + rank(Krylov stack of the leftover rows).

    The rank is compared with a direct elimination of the full system.
    Raises PivotError when a pivot block is rank deficient, which can
    only happen for codes failing deformability.
    """
    geom = SegmentGeometry(kind, width, length, orientation, corner_at)
    p = params.p
    A, v = strip_transfer(params, geom)
    ncols = A.shape[0]
    krylov = [v]  # v A^i; the residual takes i < l-1, the Krylov stack i < 2w
    while len(krylov) < max(length - 1, ncols):
        krylov.append((krylov[-1] @ A) % p)
    residual = np.concatenate(krylov[:length - 1][::-1], axis=0)  # v A^(l-2), ..., v

    rank = ncols * (length - 1) + fp.mat_rank(residual, p)
    direct_rank = fp.mat_rank(build_segment_constraints(params, geom).matrix, p)
    krylov_rank = fp.mat_rank(np.concatenate(krylov[:ncols], axis=0), p)

    return ReductionResult(
        width=width,
        length=length,
        transfer_blocks=[(-A) % p] * (length - 1),
        leftover_blocks=[v] * (length - 1),
        residual=residual,
        rank=rank,
        nullspace_dim=ncols * length - rank,
        direct_rank=direct_rank,
        agrees_with_direct=rank == direct_rank,
        krylov_bound_ok=rank <= ncols * (length - 1) + krylov_rank,
    )


def width1_criterion(params: CodeParams, lengths=range(2, 7)) -> dict:
    """Compare the width-1 determinant test against the segment solver.

    Evaluates det(T - T^-1) for the three direction matrices and runs the
    solver at width 1 over the given lengths for each length axis.  The
    determinant test asserts det != 0 implies no width-1 string; the
    returned flags record whether the solver agrees, in aggregate and as
    unordered per-direction multisets (the direction-to-matrix pairing is
    convention dependent).
    """
    if not check_deformability(params):
        raise PrerequisiteError("width-1 criterion needs a deformable code")
    dets = minimal_string_determinants(params)
    det_nonzero = [d != 0 for d in dets]
    oracle_no_string = []
    for axis in range(3):
        wa = 0 if axis != 0 else 1
        hit = False
        for length in lengths:
            geom = SegmentGeometry("flat", 1, length, (axis, wa))
            if solve_segment(params, geom).nontrivial:
                hit = True
                break
        oracle_no_string.append(not hit)
    return {
        "determinants": dets,
        "det_nonzero": det_nonzero,
        "oracle_no_string": oracle_no_string,
        "aggregate_agreement": all(det_nonzero) == all(oracle_no_string),
        "multiset_agreement": sorted(det_nonzero) == sorted(oracle_no_string),
        "polarity": "det-nonzero-implies-no-string",
    }


# ---------------------------------------------------------------------------
# Constructive flattening


def kink_profile(box: tuple[int, int, int]) -> set[Site]:
    """Target support after flattening a (w, h, l) box: the bottom row of
    each cross section plus the far column above its end, for all lengths."""
    w, h, l = box
    prof = set()
    for z in range(l):
        for x in range(w):
            prof.add((x, 0, z))
        for y in range(1, h):
            prof.add((w - 1, y, z))
    return prof


def in_box_cubes(box: tuple[int, int, int]) -> list[Site]:
    w, h, l = box
    return [(x, y, z) for x in range(w - 1) for y in range(h - 1) for z in range(l - 1)]


def box_sites(box: tuple[int, int, int]) -> list[Site]:
    w, h, l = box
    return [(x, y, z) for x in range(w) for y in range(h) for z in range(l)]


def in_box_generator_matrix(params: CodeParams, box: tuple[int, int, int]):
    """Matrix of in-box generator vectors over the box coordinates.

    Returns (matrix, cubes, index); rows are generators, and ``index`` maps
    each box site, in ``box_sites`` order, to its column pair
    (x-exponent then z-exponent).
    """
    index = {q: t for t, q in enumerate(box_sites(box))}
    cubes = in_box_cubes(box)
    return generator_rows(params, cubes, index.get, len(index)), cubes, index


def is_stabilizer_combination(params: CodeParams, config: PauliConfig,
                              box: tuple[int, int, int]) -> bool:
    """Exact span membership of a config in the in-box generators; False
    when the config has support outside the box."""
    M, _, index = in_box_generator_matrix(params, box)
    vec = config_row(config, index.get, len(index))
    if vec is None:
        return False
    return fp.mat_rank(np.concatenate([M, vec.reshape(1, -1)]), params.p) == fp.mat_rank(M, params.p)


def flatten_segment(params: CodeParams, config: PauliConfig,
                    box: tuple[int, int, int]) -> PauliConfig:
    """Deform a box-supported configuration onto the kinked surface profile.

    Multiplies by in-box generators only, so the result is exactly
    equivalent to the input.  Flat inputs are returned unchanged.  When
    no in-box combination clears the off-profile support (inevitably so
    for some inputs when deformability fails), FlattenError names the
    first site that cannot be eliminated.
    """
    w, h, l = box
    if min(box) < 1:
        raise ValueError(f"box must be positive, got {box}")
    for q in config.support:
        if not (0 <= q[0] < w and 0 <= q[1] < h and 0 <= q[2] < l):
            raise ValueError(f"config has support outside the box at {q}")
    profile = kink_profile(box)
    if all(q in profile for q in config.support):
        return config.copy()

    p = params.p
    M, cubes, index = in_box_generator_matrix(params, box)
    target = (-config_row(config, index.get, len(index))) % p
    off = [(q, t) for q, t in index.items() if q not in profile]

    def build_rows(n):
        # the generators' (x, z) columns at the first n off-profile sites
        cols = [j for _, t in off[:n] for j in (2 * t, 2 * t + 1)]
        return M[:, cols].T, target[cols]

    coeffs = fp.solve(*build_rows(len(off)), p)
    if coeffs is None:
        for n in range(1, len(off) + 1):
            if fp.solve(*build_rows(n), p) is None:
                raise FlattenError(off[n - 1][0])
        raise FlattenError(off[-1][0])  # unreachable; defensive

    out = config.copy()
    for j, c in enumerate(cubes):
        x = int(coeffs[j])
        if x:
            out = out.mul(generator_config(params, c).scale(x))
    leftover = [q for q in out.support if q not in profile]
    if leftover:
        raise FlattenError(sorted(leftover)[0], "elimination left off-profile support")
    return out
