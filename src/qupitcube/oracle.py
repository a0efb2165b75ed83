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
(``strip_transfer``) decides every length, whether or not the code is
deformable.  The dense per-geometry solver the tests compare the scan
against is ``reference.solve_segment``.

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


ORIENTATIONS: tuple[tuple[int, int], ...] = tuple(permutations(range(3), 2))

# Widest strip and longest length horizon ``scan_width`` scans.  Measured
# on a 2-core x86_64 VM: ``strings --wmax 16 --lmax 64`` takes 1.1-1.2 s
# on d5 at 35 MB and 2.9-3.4 s on the p = 2 string code at 37 MB.  A
# family keeps only the kernel of its last nontrivial length, so memory
# does not grow with each length kept.  Families with free columns are
# not bounded in time by these: their kernel grows with the length, and
# on the p = 3 tuple (1,0)^4 ``--wmax 8`` takes 0.9-1.6 s and
# ``--wmax 12`` 23 s at 75 MB.
MAX_STRIP_WIDTH = 16
MAX_STRIP_LENGTH = 64


@dataclass(frozen=True)
class SegmentGeometry:
    """Strip geometry: kind, width, length, axes, and corner position.

    ``orientation`` is (length_axis, width_axis).  For a cornered strip
    the cross section runs ``corner_at`` sites along the width axis and
    then bends along the remaining axis; 1 <= corner_at < width.
    ``corner_at`` = 1 is the flat strip along the bend axis, same sites in
    the same order: a width-2 "cornered" report is a flat one, and no
    genuine L exists below width 3.  Families are scanned once per class
    under point inversion, which maps (la, wa, c) to (la, bend, w - c + 1).
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
        def offset(i: int, k: int = 0) -> Site:
            o = [0, 0, 0]
            o[self.width_axis], o[self.bend_axis] = i, k
            return tuple(o)

        straight = self.width if self.kind == "flat" else self.corner_at
        return ([offset(i) for i in range(straight)]
                + [offset(straight - 1, k) for k in range(1, self.width - straight + 1)])

    def column_sites(self, j: int) -> list[Site]:
        """The cross section at length position j."""
        return [tuple(c + j * (a == self.length_axis) for a, c in enumerate(o))
                for o in self.cross_section()]

    def support(self) -> list[Site]:
        """All strip sites, length-major then cross-section order."""
        return [q for j in range(self.length) for q in self.column_sites(j)]

    def anchors(self) -> tuple[set[Site], set[Site]]:
        """The two anchor cross-sections, one step beyond each strip end."""
        return set(self.column_sites(-1)), set(self.column_sites(self.length))


def _vector_to_config(params: CodeParams, sites: list[Site], vec: np.ndarray) -> PauliConfig:
    cfg = PauliConfig(params.p)
    for t, q in enumerate(sites):
        pair = (int(vec[2 * t + 1]), int(vec[2 * t]))  # columns hold (z, x)
        if pair != (0, 0):
            cfg.add(q, pair)
    return cfg


def _ends_witness(basis: np.ndarray, n: int, p: int):
    """A vector of the span nonzero on both end column blocks (the first and
    the last ``n`` columns), if one exists.

    Both projections nonzero is sufficient: a space over F_p is never the
    union of two proper subspaces, and u + v repairs a vector vanishing
    at one end.
    """
    on1 = [v for v in basis if v[:n].any()]
    on2 = [v for v in basis if v[-n:].any()]
    if not on1 or not on2:
        return None
    u, v = on1[0], on2[0]
    if u[-n:].any():
        return u
    if v[:n].any():
        return v
    return (u + v) % p


def geometries(width: int, length: int, kind: str) -> list[SegmentGeometry]:
    """All scan geometries for a width and length (cornered: all corners)."""
    if kind == "flat":
        return [SegmentGeometry("flat", width, length, o) for o in ORIENTATIONS]
    if kind == "cornered":
        return [SegmentGeometry("cornered", width, length, o, w1)
                for o in ORIENTATIONS for w1 in range(1, width)]
    raise ValueError(f"kind must be 'flat' or 'cornered', got {kind!r}")


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


def _pair_system(params: CodeParams, geom: SegmentGeometry) -> np.ndarray:
    """The length-2 system of ``geom``'s family, from its cross-section: a
    cube at length position -1 or +1 that meets the strip meets an anchor,
    so the rows are the cubes at 0 whose footprint meets the cross-section,
    labels (x, z) landing on the (z, x) columns of block ``v[la]`` with the
    second negated.  ``reference.build_segment_constraints`` is the oracle.
    """
    la = geom.length_axis
    support = replace(geom, length=2).support()
    index = {q: t for t, q in enumerate(support)}
    cubes = [c for c in cubes_touching(geom.cross_section()) if c[la] == 0]
    M = generator_rows(params, cubes, index.get, len(support))
    M[:, 1::2] = (-M[:, 1::2]) % params.p
    return M


def strip_transfer(params: CodeParams,
                   geom: SegmentGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer blocks ``A``, ``F`` and leftover rows ``v`` of a strip family.

    The strip system is translation invariant along the length axis: the
    generators whose cubes start at length position g act on column
    blocks g and g+1 through the same two blocks for every g.  Eliminating
    the length-2 system (``_pair_system``) against its first column block
    therefore gives (``fp.transfer``), at every length,
    ``x_g = A x_{g+1} + F z_g`` and ``v x_{g+1} = 0``, where ``z_g`` is
    free and holds one entry per non-pivot column of that block.  ``F``
    has no columns when the block has full rank, as it always does for
    deformable codes.  Only ``geom.kind``, width, orientation and corner
    are used.
    """
    M = _pair_system(params, geom)
    return fp.transfer(M, M.shape[1] // 2, params.p)


def _transfer_witness(params: CodeParams, geom: SegmentGeometry, A: np.ndarray,
                      F: np.ndarray, kernel: np.ndarray) -> PauliConfig:
    """The witness ``reference.solve_segment`` reports, from ``_scan_family``'s
    kernel basis at ``geom.length``.

    Each basis row (x_{l-1}, z_{l-2}, ..., z_0) expands to the strip
    solution (x_0, ..., x_{l-1}) by ``x_g = A x_{g+1} + F z_g``.  The
    expanded basis is then put in the form ``fp.nullspace`` returns, which
    is unique for the space: each vector is 1 at its own last nonzero
    column and 0 there in the others.  That is the reduced echelon form of
    the column-reversed basis, with rows and columns reversed back.
    """
    p = params.p
    n, f = F.shape
    blocks = [kernel[:, :n]]
    for g in range(geom.length - 1):
        z = kernel[:, n + f * g:n + f * (g + 1)]
        blocks.append((blocks[-1] @ A.T + z @ F.T) % p)
    R, _ = fp.mat_rref(np.concatenate(blocks[::-1], axis=1)[:, ::-1], p)
    basis = R[:kernel.shape[0], ::-1][::-1]
    return _vector_to_config(params, geom.support(), _ends_witness(basis, n, p))


def _scan_family(params: CodeParams, geom: SegmentGeometry, l_max: int):
    """``(dims, nontrivial, (A, F, kernel))`` of one strip family: the
    nullspace dimension and nontriviality at lengths 2..l_max, and what
    ``_transfer_witness`` needs at the last nontrivial length.

    A length-l solution is fixed by the parameters (x_{l-1}, z_{l-2}, ...,
    z_0) of ``strip_transfer``'s recursion, and distinct parameters give
    distinct solutions, since z_g is part of x_g.  One length more puts the
    constraint ``v x_0 = 0`` on the old first column and prepends the new
    first column ``A x_0 + F z`` with z free: the kernel basis (rows, in
    parameter coordinates) is cut by one nullspace and grows by an identity
    block for z.  Its row count is the nullspace dimension, and the length
    is nontrivial when the kernel's first and last columns are both nonzero.
    Only the kernel of the last nontrivial length is kept.
    """
    p = params.p
    A, F, v = strip_transfer(params, geom)
    n, f = F.shape
    kernel = np.eye(n, dtype=np.int64)  # length 1: the parameters are x_0
    first = kernel                      # each basis row's first column x_0
    dims, nontrivial, last = [0] * (l_max - 1), [False] * (l_max - 1), None
    for i in range(l_max - 1):  # length i + 2
        if not kernel.shape[0]:
            break  # then F has no columns, and no longer strip has a solution
        coeffs = fp.nullspace((v @ first.T) % p, p)
        first = np.concatenate([((coeffs @ first) % p @ A.T) % p, F.T])
        cut = (coeffs @ kernel) % p
        kernel = np.zeros((cut.shape[0] + f, cut.shape[1] + f), dtype=np.int64)
        kernel[:cut.shape[0], :cut.shape[1]] = cut
        kernel[cut.shape[0]:, cut.shape[1]:] = np.eye(f, dtype=np.int64)
        dims[i] = kernel.shape[0]
        nontrivial[i] = bool(first.any() and kernel[:, :n].any())
        if nontrivial[i]:
            last = kernel
    return dims, nontrivial, (A, F, last)


def check_scan_bounds(width: int, l_max: int | None = None) -> None:
    """Refuse a scan outside widths 1..``MAX_STRIP_WIDTH`` or a length
    horizon outside 2..``MAX_STRIP_LENGTH``: an empty scan would report
    "no string" without solving anything."""
    if width < 1:
        raise ValueError(f"string scans need width >= 1, got {width}")
    if width > MAX_STRIP_WIDTH:
        raise ValueError(f"string scans are limited to width <= {MAX_STRIP_WIDTH}, "
                         f"got {width}")
    if l_max is not None and l_max < 2:
        raise ValueError(f"string scans need length >= 2, got {l_max}")
    if l_max is not None and l_max > MAX_STRIP_LENGTH:
        raise ValueError(f"string scans are limited to length <= {MAX_STRIP_LENGTH}, "
                         f"got {l_max}")


def _inversion_class(geom: SegmentGeometry) -> tuple:
    """Length axis and cross-section up to translation and point inversion,
    which maps the cube generator to +-itself and swaps the anchors: the
    families of one class have equal nullspace dimensions and nontriviality."""
    section = geom.cross_section()

    def normal(sign: int) -> tuple:
        low = [min(sign * q[a] for q in section) for a in range(3)]
        return tuple(sorted(tuple(sign * q[a] - low[a] for a in range(3)) for q in section))

    return geom.length_axis, min(normal(1), normal(-1))


def scan_width(params: CodeParams, width: int, l_max: int | None = None,
               kinds=("flat", "cornered")) -> dict[str, SegmentReport]:
    """One report per kind at one width: lengths 2..l_max (default 2w + 4,
    past both the w+1 and the 2w bounds) over all orientations and corners.

    Each ``_inversion_class`` is scanned once, by its first family in
    ``geometries`` order; the reports equal ``reference.solve_segment``'s
    length by length.  Width-1 cornered reports are empty.  Refuses scans
    beyond ``MAX_STRIP_WIDTH`` or ``MAX_STRIP_LENGTH``, and any kind but
    "flat" or "cornered".
    """
    check_scan_bounds(width, l_max)
    if l_max is None:
        l_max = 2 * width + 4
    lengths = list(range(2, l_max + 1))
    scanned = {}  # inversion class -> the scan of its first geometry
    reports = {}
    for kind in kinds:
        families = []
        for geom in geometries(width, 2, kind):
            key = _inversion_class(geom)
            if key not in scanned:
                scanned[key] = _scan_family(params, geom, l_max)
            families.append((geom, scanned[key]))
        dims = {l: max(s[0][l - 2] for _, s in families) for l in lengths} if families else {}
        found = [l for l in lengths if any(s[1][l - 2] for _, s in families)]
        max_len = max(found, default=None)
        witness = witness_geom = None
        if max_len is not None:
            # as the length-by-length scan: the first nontrivial family at the
            # last hit (its own last one); it heads its class within the kind,
            # so it has the sites of the geometry scanned for the class
            geom, scan = next(f for f in families if f[1][1][max_len - 2])
            witness_geom = replace(geom, length=max_len)
            witness = _transfer_witness(params, witness_geom, *scan[2])
        reports[kind] = SegmentReport(
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
    return reports


def max_nontrivial_length(params: CodeParams, width: int, l_max: int | None = None,
                          kind: str = "flat") -> SegmentReport:
    """``scan_width``'s report for one kind."""
    return scan_width(params, width, l_max, (kind,))[kind]
