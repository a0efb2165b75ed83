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
formalism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import fp
from .codes import CodeParams, PauliConfig, Site, cubes_touching, generator_rows


class DegenerateGeometryError(ValueError):
    """Raised for geometries too small to separate the two anchors."""


class PivotError(ValueError):
    """Raised when block elimination meets a rank-deficient pivot block
    (possible only when deformability fails)."""


ORIENTATIONS: tuple[tuple[int, int], ...] = tuple(permutations(range(3), 2))

# Widest strip and longest length horizon ``max_nontrivial_length``
# scans.  Measured on a 2-core x86_64 VM: ``strings --wmax 16`` on d5
# takes 3.4 s and ``--wmax 20`` 8.3 s; at ``--wmax 16 --lmax 64`` d5 takes
# 4.7 s at 40 MB and the p = 2 string code 7.9 s at 66 MB.  Memory grows
# with the horizon, since each length keeps its witness kernel: the p = 2
# code takes 101 MB at --lmax 128.
MAX_STRIP_WIDTH = 16
MAX_STRIP_LENGTH = 64


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


def check_scan_bounds(width: int, l_max: int | None = None) -> None:
    """Refuse a scan wider than ``MAX_STRIP_WIDTH`` or a length horizon
    beyond ``MAX_STRIP_LENGTH``."""
    if width > MAX_STRIP_WIDTH:
        raise ValueError(f"string scans are limited to width <= {MAX_STRIP_WIDTH}, "
                         f"got {width}")
    if l_max is not None and l_max > MAX_STRIP_LENGTH:
        raise ValueError(f"string scans are limited to length <= {MAX_STRIP_LENGTH}, "
                         f"got {l_max}")


def max_nontrivial_length(params: CodeParams, width: int, l_max: int | None = None,
                          kind: str = "flat") -> SegmentReport:
    """Scan lengths 2..l_max over all orientations (and corner positions).

    The default horizon 2*width + 4 comfortably covers both the w+1 and
    the 2w length bounds.  Width-1 cornered strips have no admissible
    corner and come back empty.  Each strip family is decided at every
    length from one block elimination (``strip_transfer``); the report
    equals the one ``solve_segment`` gives length by length.  Refuses
    scans beyond ``MAX_STRIP_WIDTH`` or ``MAX_STRIP_LENGTH``.
    """
    check_scan_bounds(width, l_max)
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
