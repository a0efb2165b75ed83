"""Exact decision procedure for nontrivial logical string segments.

A candidate segment lives on a strip (``SegmentGeometry``): a
cross-section of w lattice sites repeated at l positions along a
coordinate axis.  The scan runs over two named families of
cross-sections (``sections``): flat (a row of sites, so the strip lies in
one lattice plane) and cornered (an L bent around an edge).  The
segment's unknowns are the symplectic pairs on the strip.  Every cube
generator that overlaps the strip while staying clear of the two anchor
cross-sections (one lattice step beyond each end) imposes one linear
constraint: the total symplectic product between the generator's labels
and the unknowns on the shared sites must vanish.  The solution space of
that system is computed exactly over F_p.

A solution is counted as a nontrivial segment when the solution space
projects nonzero onto BOTH end columns of the strip.  Over a field a
linear space is never the union of two proper subspaces, so this is
equivalent to the existence of a single witness acting at both ends,
which is the operational stand-in for "every equivalent segment stays
connected between the anchors".

Length scans do not solve one system per length: the strip system is
translation invariant, so one block elimination per strip family
(``strip_transfer``) decides every length, whether or not the code is
deformable.  The dense per-strip solver the tests compare the scan
against is ``reference.solve_segment``.

Column layout: sites are ordered along the strip (length-major, then
cross-section); each site contributes two adjacent columns holding
(z-exponent, x-exponent).  With that order the width-1 constraint blocks
are literally the 2x2 base matrices [[g1, -g2], ...] of the transition
formalism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import fp
from .codes import CodeParams, PauliConfig, Site, cubes_touching, generator_rows


class DegenerateGeometryError(ValueError):
    """Raised for strips too small to separate the two anchors."""


ORIENTATIONS: tuple[tuple[int, int], ...] = tuple(permutations(range(3), 2))
Section = tuple[Site, ...]

# Widest strip and longest length horizon ``scan_width`` scans.  Measured
# on a 2-core x86_64 VM: ``strings --wmax 16 --lmax 64`` takes 1.1-1.2 s
# on d5 at 35 MB and 2.9-3.4 s on the p = 2 string code at 37 MB.  A
# family keeps only the kernel of its last nontrivial length, so memory
# does not grow with each length kept.  Families with free columns are
# not bounded in time by these: their kernel grows with the length, and
# on the p = 3 tuple (1,0)^4 ``--wmax 8`` takes 1.0-1.3 s at 37 MB,
# ``--wmax 11`` 12 s at 60 MB and ``--wmax 12`` 21 s at 74 MB.
MAX_STRIP_WIDTH = 16
MAX_STRIP_LENGTH = 64


@dataclass(frozen=True)
class SegmentGeometry:
    """A strip: the cross-section ``section`` translated along ``axis`` to
    positions 0..length-1.

    ``section`` lists the cross-section's sites, each at 0 on the axis, in
    column order.  ``sections`` names the flat and cornered families the
    scan runs over.
    """

    axis: int
    section: Section
    length: int

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis!r}")
        if not self.section or self.length < 2:
            raise DegenerateGeometryError(
                f"need a nonempty section and length >= 2, got "
                f"{len(self.section)} sites, l={self.length}")
        if len(set(self.section)) != len(self.section):
            raise ValueError(f"section repeats a site: {self.section}")
        if any(q[self.axis] for q in self.section):
            raise ValueError(f"section sites must be 0 on axis {self.axis}: {self.section}")

    def column_sites(self, j: int) -> list[Site]:
        """The cross section at length position j."""
        return [_shift(q, self.axis, j) for q in self.section]

    def support(self) -> list[Site]:
        """All strip sites, length-major then cross-section order."""
        return [q for j in range(self.length) for q in self.column_sites(j)]

    def anchors(self) -> tuple[set[Site], set[Site]]:
        """The two anchor cross-sections, one step beyond each strip end."""
        return set(self.column_sites(-1)), set(self.column_sites(self.length))


def _shift(q: Site, axis: int, j: int) -> Site:
    return tuple(c + j * (a == axis) for a, c in enumerate(q))


def sections(width: int, kind: str) -> list[tuple[int, Section]]:
    """The (axis, section) families of a kind at one width, for each
    ``ORIENTATIONS`` (length axis la, width axis wa) in order.

    A flat section runs ``width`` sites along wa.  A cornered one runs c
    sites along wa and then bends along the remaining axis ba, one family
    per corner c = 1..width-1.  c = 1 is the flat section along ba, same
    sites in the same order: a width-2 "cornered" report is a flat one,
    and no genuine L exists below width 3.  Point inversion maps
    (la, wa, c) to (la, ba, width - c + 1).
    """
    if kind == "flat":
        corners = (width,)
    elif kind == "cornered":
        corners = range(1, width)
    else:
        raise ValueError(f"kind must be 'flat' or 'cornered', got {kind!r}")
    out = []
    for la, wa in ORIENTATIONS:
        ba = 3 - la - wa
        for c in corners:
            straight = [_shift((0, 0, 0), wa, i) for i in range(c)]
            bend = [_shift(straight[-1], ba, k) for k in range(1, width - c + 1)]
            out.append((la, tuple(straight + bend)))
    return out


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


def _pair_system(params: CodeParams, axis: int, section: Section) -> np.ndarray:
    """The length-2 system of a strip family, from its cross-section: a
    cube at length position -1 or +1 that meets the strip meets an anchor,
    so the rows are the cubes at 0 whose footprint meets the cross-section,
    labels (x, z) landing on the (z, x) columns of block ``v[axis]`` with
    the second negated.  ``reference.build_segment_constraints`` is the
    oracle.
    """
    support = [*section, *(_shift(q, axis, 1) for q in section)]
    index = {q: t for t, q in enumerate(support)}
    cubes = [c for c in cubes_touching(section) if c[axis] == 0]
    M = generator_rows(params, cubes, index.get, len(support))
    M[:, 1::2] = (-M[:, 1::2]) % params.p
    return M


def strip_transfer(params: CodeParams, axis: int,
                   section: Section) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer blocks ``A``, ``F`` and leftover rows ``v`` of the strip
    family of ``section`` along ``axis``.

    The strip system is translation invariant along the length axis: the
    generators whose cubes start at length position g act on column
    blocks g and g+1 through the same two blocks for every g.  Eliminating
    the length-2 system (``_pair_system``) against its first column block
    therefore gives (``fp.transfer``), at every length,
    ``x_g = A x_{g+1} + F z_g`` and ``v x_{g+1} = 0``, where ``z_g`` is
    free and holds one entry per non-pivot column of that block.  ``F``
    has no columns when the block has full rank, as it always does for
    deformable codes.
    """
    M = _pair_system(params, axis, section)
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


def _scan_family(params: CodeParams, axis: int, section: Section, l_max: int):
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
    A, F, v = strip_transfer(params, axis, section)
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


def _inversion_class(axis: int, section: Section) -> tuple:
    """Length axis and cross-section up to translation and point inversion,
    which maps the cube generator to +-itself and swaps the anchors: the
    families of one class have equal nullspace dimensions and nontriviality."""
    def normal(sign: int) -> tuple:
        low = [min(sign * q[a] for q in section) for a in range(3)]
        return tuple(sorted(tuple(sign * q[a] - low[a] for a in range(3)) for q in section))

    return axis, min(normal(1), normal(-1))


def scan_width(params: CodeParams, width: int, l_max: int | None = None,
               kinds=("flat", "cornered")) -> dict[str, SegmentReport]:
    """One report per kind at one width: lengths 2..l_max (default 2w + 4,
    past both the w+1 and the 2w bounds) over all orientations and corners.

    Each ``_inversion_class`` is scanned once, by its first family in
    ``sections`` order; the reports equal ``reference.solve_segment``'s
    length by length.  Width-1 cornered reports are empty.  Refuses scans
    beyond ``MAX_STRIP_WIDTH`` or ``MAX_STRIP_LENGTH``, and any kind but
    "flat" or "cornered".
    """
    check_scan_bounds(width, l_max)
    if l_max is None:
        l_max = 2 * width + 4
    lengths = list(range(2, l_max + 1))
    scanned = {}  # inversion class -> the scan of its first family
    reports = {}
    for kind in kinds:
        families = []
        for axis, section in sections(width, kind):
            key = _inversion_class(axis, section)
            if key not in scanned:
                scanned[key] = _scan_family(params, axis, section, l_max)
            families.append((axis, section, scanned[key]))
        dims = {l: max(s[0][l - 2] for *_, s in families) for l in lengths} if families else {}
        found = [l for l in lengths if any(s[1][l - 2] for *_, s in families)]
        max_len = max(found, default=None)
        witness = witness_geom = None
        if max_len is not None:
            # as the length-by-length scan: the first nontrivial family at the
            # last hit (its own last one); it heads its class within the kind,
            # so it has the sites of the family scanned for the class
            axis, section, scan = next(f for f in families if f[2][1][max_len - 2])
            witness_geom = SegmentGeometry(axis, section, max_len)
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

